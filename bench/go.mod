module wsda/bench

go 1.22

require wsda v0.0.0

replace wsda => ../
