module dpm/bench

go 1.22

require dpm v0.0.0

replace dpm => ../
