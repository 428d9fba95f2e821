module vransim/benchmark

go 1.22

require vransim v0.0.0

replace vransim => ../
