module plum/benchmark

go 1.22

require plum v0.0.0

replace plum => ../
