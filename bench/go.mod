module ipa/bench

go 1.22

require ipa v0.0.0

replace ipa => ../
