package trace

import "repro/internal/ompt"

// ReplayShared replays t on the calling goroutine with every tool in
// ompt.DispatchShared mode: events go one at a time through the per-access
// lock-free CAS paths that online runs use (paper §IV-C), with no tag
// plane, region memo or column batches. The equivalence tests compare its
// findings with the sequential replay loop's.
func ReplayShared(t *Trace, toolList ...ompt.Tool) error {
	var d ompt.Dispatcher
	for _, tool := range toolList {
		d.Register(tool)
	}
	d.SetDispatchMode(ompt.DispatchShared)
	for i := range t.Events {
		if err := dispatchEvent(&d, &t.Events[i]); err != nil {
			return err
		}
	}
	return nil
}
