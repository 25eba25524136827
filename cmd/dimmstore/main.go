// Command dimmstore inspects and maintains durable RR-sample stores
// (the checkpoint directories written by dimmsrv -checkpoint-dir; see
// internal/store for the on-disk format).
//
//	dimmstore info   /var/lib/dimm/ckpt   # manifest summary, no payload reads
//	dimmstore verify /var/lib/dimm/ckpt   # full read: sizes, CRC32C, wire decode
//	dimmstore prune  /var/lib/dimm/ckpt   # delete orphan segments/temp files
//	dimmstore compact /var/lib/dimm/ckpt  # merge all segments into one
//
// verify exits non-zero on the first corrupt or stale segment, printing
// the same typed error a restoring dimmsrv would surface.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"dimm/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dimmstore: ")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dimmstore <info|verify|prune|compact> <dir>")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	cmd, dir := flag.Arg(0), flag.Arg(1)

	switch cmd {
	case "info":
		info, err := store.Inspect(dir)
		if err != nil {
			log.Fatal(err)
		}
		printInfo(info)

	case "verify":
		info, err := store.Verify(dir)
		if err != nil {
			if info != nil {
				printInfo(info)
			}
			log.Fatal(err)
		}
		printInfo(info)
		extra := ""
		if info.Sketch != nil {
			extra = " + sketch"
		}
		if n := len(info.Deltas); n > 0 {
			extra += fmt.Sprintf(" + %d graph deltas", n)
		}
		fmt.Printf("verify: all %d segments%s OK\n", len(info.Epochs), extra)

	case "prune":
		removed, err := store.Prune(dir)
		if err != nil {
			log.Fatal(err)
		}
		if len(removed) == 0 {
			fmt.Println("prune: nothing to remove")
			return
		}
		for _, name := range removed {
			fmt.Printf("prune: removed %s\n", name)
		}

	case "compact":
		before, err := store.Inspect(dir)
		if err != nil {
			log.Fatal(err)
		}
		if err := store.Compact(dir); err != nil {
			log.Fatal(err)
		}
		after, err := store.Inspect(dir)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("compact: %d segments -> %d (%d bytes)\n",
			len(before.Epochs), len(after.Epochs), after.Bytes)

	default:
		log.Fatalf("unknown command %q (want info|verify|prune|compact)", cmd)
	}
}

func printInfo(info *store.Info) {
	fp := info.Fingerprint
	fmt.Printf("%s:\n", info.Dir)
	fmt.Printf("  graph        %s\n", fp.GraphHash)
	fmt.Printf("  model        %s", fp.Model)
	if fp.WeightModel != "" {
		fmt.Printf(" / %s weights", fp.WeightModel)
	}
	if fp.Subset {
		fmt.Print(" / subset sampling")
	}
	fmt.Println()
	fmt.Printf("  sampling     seed=%d machines=%d\n", fp.Seed, fp.Machines)
	fmt.Printf("  envelope     kmax=%d eps-floor=%g\n", fp.KMax, fp.EpsFloor)
	fmt.Printf("  RR sets      %d (R1) + %d (R2) in %d segments, %d bytes\n",
		info.R1Sets, info.R2Sets, len(info.Epochs), info.Bytes)
	for _, e := range info.Epochs {
		fmt.Printf("    epoch %-4d %s  %d+%d sets  %d bytes  crc %08x\n",
			e.Epoch, e.File, e.R1Sets, e.R2Sets, e.Bytes, e.CRC)
	}
	if sk := info.Sketch; sk != nil {
		fmt.Printf("  sketch       bottom-%d seed=%d theta=%d\n", sk.K, sk.Seed, sk.Theta)
		fmt.Printf("    epoch %-4d %s  %d bytes  crc %08x\n",
			sk.Epoch, sk.File, sk.Bytes, sk.CRC)
	}
	if len(info.Deltas) > 0 {
		fmt.Printf("  graph deltas %d batches, %d RR sets repaired (store is a journal; not restorable)\n",
			len(info.Deltas), info.RepairedSets)
		for _, d := range info.Deltas {
			tag := ""
			if d.Remirrored {
				tag = "  [remirrored]"
			}
			fmt.Printf("    seq %-6d %s  %d ops  %d repaired  epoch %d  %d bytes  crc %08x%s\n",
				d.Seq, d.File, d.Ops, d.Repaired, d.Epoch, d.Bytes, d.CRC, tag)
		}
	}
	for _, o := range info.Orphans {
		fmt.Printf("  orphan       %s (not in manifest; dimmstore prune removes it)\n", o)
	}
}
