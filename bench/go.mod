module peertrack/bench

go 1.22

require peertrack v0.0.0

replace peertrack => ../
