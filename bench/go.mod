module github.com/matex-sim/matex/bench

go 1.22

require github.com/matex-sim/matex v0.0.0

replace github.com/matex-sim/matex => ../
