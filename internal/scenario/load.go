package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Parse decodes one scenario from YAML-subset or JSON bytes (name is
// used in errors; its extension selects the syntax, defaulting to
// YAML). Unknown fields are rejected — a typo in an assertion must not
// silently weaken the corpus — and the scenario is validated.
func Parse(name string, data []byte) (*Scenario, error) {
	var jsonBytes []byte
	if strings.HasSuffix(name, ".json") {
		jsonBytes = data
	} else {
		tree, err := parseYAML(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		jsonBytes, err = json.Marshal(tree)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	return decode(name, jsonBytes)
}

// decode is Parse past the syntax: the typed decode, with unknown
// fields rejected, and the validation.
func decode(name string, jsonBytes []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(jsonBytes))
	dec.DisallowUnknownFields()
	s := &Scenario{}
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return s, nil
}

// LoadFile reads and parses one scenario file (.yaml, .yml or .json).
func LoadFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(filepath.Base(path), data)
}

// LoadDir loads every scenario file directly inside dir, sorted by
// file name so corpus order is stable.
func LoadDir(dir string) ([]*Scenario, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch filepath.Ext(e.Name()) {
		case ".yaml", ".yml", ".json":
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("scenario: no scenario files in %s", dir)
	}
	out := make([]*Scenario, 0, len(paths))
	seen := map[string]string{}
	for _, p := range paths {
		s, err := LoadFile(p)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[s.Name]; dup {
			return nil, fmt.Errorf("scenario: %s and %s both declare name %q", prev, p, s.Name)
		}
		seen[s.Name] = p
		out = append(out, s)
	}
	return out, nil
}

// EncodeJSON renders the scenario as indented JSON — the format the
// generator writes its corpus entries in.
func (s *Scenario) EncodeJSON() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
