module dimm/benchmark

go 1.22

require dimm v0.0.0

replace dimm => ../
