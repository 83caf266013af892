module jarvis/benchmark

go 1.24

require jarvis v0.0.0

replace jarvis => ../
