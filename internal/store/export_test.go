package store

// AppendLine appends one record given as its line: AppendBatch of a
// batch of one, for tests that write record by record.
func (s *Store) AppendLine(m Meta, line string) error {
	return s.AppendBatch([]BatchRec{{Meta: m, Line: []byte(line)}})
}
