module ndsm/benchmark

go 1.22

require ndsm v0.0.0

replace ndsm => ../
