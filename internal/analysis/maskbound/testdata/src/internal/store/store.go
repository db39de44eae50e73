// Fixture stand-in for the real internal/store: only the sink method
// names and the receiver type name matter to the analyzer.
package store

type Op struct{}

type Store struct{}

func (s *Store) ApplyBatch(service string, ops []Op) ([]string, error) { return nil, nil }
