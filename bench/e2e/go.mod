module apex/bench/e2e

go 1.22

require apex v0.0.0

replace apex => ../..
