package bench

import "fmt"

// RunAll regenerates every experiment in DESIGN.md's index in order.
func RunAll(o Options) error {
	type step struct {
		name string
		run  func() error
	}
	steps := []step{
		{"fig5", func() error { _, err := RunFig5(o); return err }},
		{"fig6", func() error { _, err := RunFig6(o); return err }},
		{"fig7", func() error { _, err := RunFig7(o); return err }},
		{"fig8", func() error { _, err := RunFig8(o); return err }},
		{"table1", func() error { _, err := RunTable1(o); return err }},
		{"fig9", func() error { _, err := RunFig9(o); return err }},
		{"ablations", func() error { _, err := RunAblations(o); return err }},
	}
	for _, s := range steps {
		fprintf(o.out(), "==== %s ====\n", s.name)
		if err := s.run(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}
