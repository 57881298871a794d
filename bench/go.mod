module toppkg/bench

go 1.22

require toppkg v0.0.0

replace toppkg => ../
