module unikv/perf

go 1.22

require unikv v0.0.0

replace unikv => ../
