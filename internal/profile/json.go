package profile

import (
	"encoding/json"
	"fmt"
	"io"
)

// Profile serialization, mirroring overlap's report files: indented,
// struct-ordered JSON (encoding/json field order is declaration order,
// so a given profile always encodes to the same bytes).

// EncodeJSON writes the profile as indented JSON.
func (p *Profile) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// DecodeJSON reads a profile written by EncodeJSON.
func DecodeJSON(r io.Reader) (*Profile, error) {
	var p Profile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("profile: decoding profile: %w", err)
	}
	return &p, nil
}
