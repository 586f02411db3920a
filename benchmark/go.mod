module scap/benchmark

go 1.22

require scap v0.0.0

replace scap => ../
