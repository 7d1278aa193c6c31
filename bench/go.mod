module greensched/bench

go 1.22

require greensched v0.0.0

replace greensched => ../
