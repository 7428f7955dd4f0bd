package funcsim

import (
	"context"

	"doppelganger/internal/trace"
)

// replayPollEvery bounds how many replayed accesses run between context
// polls; cancellation latency stays small without a per-access atomic load.
const replayPollEvery = 4096

// ReplayStreamContext drives the hierarchy through every recorded access in
// the recorder's global order, reproducing the live run's exact functional
// state evolution (including the shared LLC's observed interleaving) without
// executing kernels or the gang scheduler. The hierarchy must have
// been built over a clone of the recording run's initial memory image and
// with no recorder of its own.
//
// The steady-state loop allocates nothing: cursor construction validates the
// order index once, and each step is a few slice operations plus the
// hierarchy access itself.
func ReplayStreamContext(ctx context.Context, h *Hierarchy, rec *trace.Recorder) error {
	cur, err := rec.Cursor()
	if err != nil {
		return err
	}
	done := ctx.Done()
	for i := 0; ; i++ {
		if done != nil && i%replayPollEvery == 0 {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		c, r := cur.Next()
		if c < 0 {
			return nil
		}
		h.Replay(c, *r)
	}
}
