package provision

import (
	"fmt"
	"os"
	"path/filepath"
)

// SaveFile writes the store's plan as indented XML, atomically
// (write-to-temp + rename), matching the paper's deployment where the
// provisioning planning is "a shared XML file".
func (s *Store) SaveFile(path string) error {
	data, err := s.Snapshot().MarshalIndent()
	if err != nil {
		return fmt.Errorf("provision: marshalling plan: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".plan-*.xml")
	if err != nil {
		return fmt.Errorf("provision: creating temp plan: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("provision: writing plan: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("provision: closing plan: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("provision: publishing plan: %w", err)
	}
	return nil
}
