module gapbench/benchmark

go 1.24

require gapbench v0.0.0

replace gapbench => ../
