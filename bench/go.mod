module gossipkit/bench

go 1.24

require gossipkit v0.0.0

replace gossipkit => ../
