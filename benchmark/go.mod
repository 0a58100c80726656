module metricindex/benchmark

go 1.24

require metricindex v0.0.0

replace metricindex => ../
