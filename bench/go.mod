module aq2pnn/bench

go 1.22

require aq2pnn v0.0.0

replace aq2pnn => ../
