package serve

import (
	"slices"
	"sync"

	"dimm/internal/core"
	"dimm/internal/imm"
	"dimm/internal/rrset"
)

// ledger is the one greedy run of a resident-sample epoch, from which
// every /v1/seeds query on that epoch is answered. NEWGREEDI returns the
// centralized greedy solution and greedy is prefix-consistent, so the
// answer to any k ≤ KMax is seeds[:k] of the single KMax run, and its
// OPIM-C certificate is arithmetic on that prefix's R1 and R2 coverage.
// One sample can certify all KMax prefixes at once because
// core.PlanResidentSample already charges the union bound over the KMax
// query sizes to every certificate's tail mass.
//
// A ledger is immutable once built and stamped with the (epoch, graph
// version, θ) it describes; a new epoch gets a new ledger, never an
// update of the old one.
type ledger struct {
	epoch uint64
	gver  uint64
	theta int64 // 0 = the sample is still empty: nothing below is set

	seeds    []uint32          // the KMax greedy seeds on R1, in selection order
	cov2     []int64           // cov2[i] = R2 sets covered by seeds[:i+1]
	certs    []imm.Certificate // certs[i] certifies seeds[:i+1]
	minRatio []float64         // minRatio[i] = min over j ≤ i of certs[j].Ratio
}

// advanceEpoch publishes the sample the caller just changed as a new
// epoch and arms the lazy single-flight build of its ledger: the first
// query to read-lock the epoch pays for the greedy run, every other query
// waits on it or reuses it. Caller holds mu (write). It is the only way
// the epoch moves, so a ledger can never outlive the sample it describes.
func (s *Service) advanceEpoch() {
	s.epoch++
	s.led = sync.OnceValues(s.buildLedger)
}

// currentLedger returns the ledger of the published epoch, building it
// if this is the first query to see that epoch.
func (s *Service) currentLedger() (*ledger, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.led()
}

// buildLedger runs greedy once at KMax over the resident R1 and
// certifies every prefix against R2. Caller holds mu (read).
func (s *Service) buildLedger() (*ledger, error) {
	l := &ledger{epoch: s.epoch, gver: s.gver, theta: int64(s.r1.Count())}
	if l.theta == 0 {
		return l, nil
	}
	s.stats.ledgerBuilds.Inc()
	sel, err := core.SelectFromSample(s.r1, s.idx1, s.n, s.cfg.KMax, s.par)
	if err != nil {
		return nil, err
	}
	l.seeds = sel.Seeds
	l.cov2 = prefixCoverage(s.idx2, s.r2.Count(), sel.Seeds)
	l.certs = make([]imm.Certificate, len(sel.Seeds))
	l.minRatio = make([]float64, len(sel.Seeds))
	var cov1 int64
	for i := range sel.Seeds {
		cov1 += sel.Marginals[i]
		l.certs[i] = core.CertifySelection(s.n, l.theta, cov1, l.cov2[i], s.budget.TailMass)
		l.minRatio[i] = l.certs[i].Ratio
		if i > 0 {
			l.minRatio[i] = min(l.minRatio[i], l.minRatio[i-1])
		}
	}
	return l, nil
}

// answer assembles the served answer for (k, ε) in O(k).
func (l *ledger) answer(n, k int, eps float64, grew int) *Answer {
	c := l.certs[k-1]
	return &Answer{
		K:            k,
		Eps:          eps,
		Seeds:        slices.Clone(l.seeds[:k]),
		Mode:         ModeCertified,
		Epoch:        l.epoch,
		GraphVersion: l.gver,
		Theta:        l.theta,
		SpreadLower:  c.SpreadLower,
		OptUpper:     c.OptUpper,
		Ratio:        c.Ratio,
		EstSpread:    float64(n) * float64(l.cov2[k-1]) / float64(l.theta),
		GrowRounds:   grew,
	}
}

// prefixCoverage returns, for each prefix seeds[:i+1], the number of the
// index's RR sets it covers, via the inverted index and a mark array
// sized count. Caller holds mu (read).
func prefixCoverage(idx *rrset.Index, count int, seeds []uint32) []int64 {
	mark := make([]bool, count)
	out := make([]int64, len(seeds))
	var covered int64
	for i, u := range seeds {
		for si := 0; si < idx.NumSegments(); si++ {
			for _, j := range idx.SegCovers(si, u) {
				if j&rrset.DeadPosting != 0 {
					continue
				}
				if !mark[j] {
					mark[j] = true
					covered++
				}
			}
		}
		out[i] = covered
	}
	return out
}
