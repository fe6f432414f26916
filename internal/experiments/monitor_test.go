package experiments

import (
	"errors"
	"io"
	"testing"

	"repro/internal/engine"
)

// TestEveryExperimentRunsUnderItsMonitor: every registered experiment
// schedules its trials through the Monitor in Params, which is how a
// service job reports progress and gets canceled. With a fresh Monitor the
// run ends with every scheduled trial done, and every experiment but the
// closed-form overhead table schedules some. With a Monitor canceled
// before Run, Run returns ErrCanceled without panicking and runs no trial.
func TestEveryExperimentRunsUnderItsMonitor(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			p := DefaultParams()
			p.Quick = true
			p.Workers = 2
			p.Monitor = &engine.Monitor{}
			if err := Run(io.Discard, name, p); err != nil {
				t.Fatalf("Run: %v", err)
			}
			done, total := p.Monitor.Progress()
			if done != total || (total > 0) != (name != "overhead") {
				t.Errorf("progress %d/%d trials", done, total)
			}

			p.Monitor = &engine.Monitor{}
			p.Monitor.Cancel()
			if err := Run(io.Discard, name, p); !errors.Is(err, ErrCanceled) {
				t.Errorf("Run with a canceled Monitor = %v, want ErrCanceled", err)
			}
			if done, _ := p.Monitor.Progress(); done != 0 {
				t.Errorf("Run with a canceled Monitor completed %d trials", done)
			}
		})
	}
}
