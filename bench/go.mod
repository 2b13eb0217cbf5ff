module pvr/bench

go 1.24

require pvr v0.0.0

replace pvr => ../
