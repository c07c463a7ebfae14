module github.com/sdl-lang/sdl/perf

go 1.22

require github.com/sdl-lang/sdl v0.0.0

replace github.com/sdl-lang/sdl => ../
