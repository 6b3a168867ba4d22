package main

import (
	"os"

	"aomplib"
)

// traceRun executes run inside a recording runtime trace and writes the
// timeline as Chrome trace-event JSON to path — the -trace flag's
// implementation, shared with the trace-validity test. The tracer holds
// the tool slot only for the run: the slot's previous occupant (nothing,
// the tracer, or a custom SetTraceHooks table) is put back afterwards, so
// a traced benchmark process ends in the same runtime state it started in.
func traceRun(path string, run func()) error {
	prev := aomplib.SetTraceHooks(nil)
	defer aomplib.SetTraceHooks(prev)
	aomplib.StartTrace()
	run()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := aomplib.StopTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
