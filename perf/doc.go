// Package perf is the repository's end-to-end benchmark: the sdlperf
// command (cmd/sdlperf), its measurement harness and the four workloads.
// It is a module of its own so that nothing outside perf/ depends on it;
// README.md has the protocol, the metric definitions and how to run it.
package perf
