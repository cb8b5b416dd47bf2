package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into the program (or one of its
// own phases), with the span that contains it.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// spans keeps a run's spans in memory; they are written out once, at the
// end. IDs are 1-based indexes into list; parent 0 is the root.
type spans struct {
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

func (s *spans) begin(name string, parent int) int {
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Name: name, StartNs: int64(time.Since(s.t0))})
	return len(s.list)
}

// end closes span id and returns its duration.
func (s *spans) end(id int) time.Duration {
	sp := &s.list[id-1]
	sp.EndNs = int64(time.Since(s.t0))
	return sp.dur()
}

// do runs f inside a span.
func (s *spans) do(name string, parent int, f func() error) error {
	id := s.begin(name, parent)
	err := f()
	s.end(id)
	return err
}

// sum totals the durations of the spans named name with IDs in
// [first, last].
func (s *spans) sum(name string, first, last int) time.Duration {
	var d time.Duration
	for _, sp := range s.list[first-1 : last] {
		if sp.Name == name {
			d += sp.dur()
		}
	}
	return d
}

// write stores the spans as JSON at path.
func (s *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(s.list, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
