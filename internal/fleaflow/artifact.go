// Package fleaflow is the experiment-DAG orchestrator: a campaign (every
// paper figure, the extension studies) is a graph of typed stages whose outputs
// are content-addressed artifacts, so reruns skip completed work and an
// interrupted campaign resumes from what its artifact store already holds.
//
// The artifact key of a stage is the SHA-256 of its definition plus the
// keys of its inputs, so the addressing is recursive: editing an upstream
// stage's definition re-keys (and therefore re-runs) everything downstream
// of it, while unrelated branches keep their cached artifacts. This is the
// same content-addressing discipline as the serving layer's result cache
// (service.UnitSpec.Key), lifted from one simulation to a whole campaign.
package fleaflow

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Store is a content-addressed artifact store rooted at one directory.
// Objects live under objects/<key[:2]>/<key>.json and are written with a
// temp-file-plus-rename protocol, so a store never holds a torn artifact:
// a campaign killed mid-write leaves at worst an orphaned temp file, and
// the interrupted stage simply re-runs on resume.
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) the artifact store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("fleaflow: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) objectPath(key string) string {
	return filepath.Join(s.dir, "objects", key[:2], key+".json")
}

// Has reports whether an artifact exists under key.
func (s *Store) Has(key string) bool {
	if len(key) < 2 {
		return false
	}
	_, err := os.Stat(s.objectPath(key))
	return err == nil
}

// GetRaw returns the stored artifact bytes for key.
func (s *Store) GetRaw(key string) ([]byte, error) {
	if len(key) < 2 {
		return nil, fmt.Errorf("fleaflow: malformed artifact key %q", key)
	}
	b, err := os.ReadFile(s.objectPath(key))
	if err != nil {
		return nil, fmt.Errorf("fleaflow: artifact %s: %w", key[:12], err)
	}
	return b, nil
}

// Get decodes the artifact stored under key into out.
func (s *Store) Get(key string, out any) error {
	b, err := s.GetRaw(key)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, out); err != nil {
		return fmt.Errorf("fleaflow: artifact %s: decode: %w", key[:12], err)
	}
	return nil
}

// Put stores v (JSON-encoded) under key, atomically: the bytes land in a
// temp file in the object's directory and are renamed into place, so a
// reader (or a resumed campaign) either sees the complete artifact or none
// at all. Writing the same key twice is a no-op overwrite with identical
// semantics.
func (s *Store) Put(key string, v any) error {
	if len(key) < 2 {
		return fmt.Errorf("fleaflow: malformed artifact key %q", key)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("fleaflow: artifact %s: encode: %w", key[:12], err)
	}
	path := s.objectPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+key[:12]+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// StageKey derives a stage's artifact key: the SHA-256 of the canonical
// JSON encoding of its name, its definition, and its inputs' artifact keys
// (keyed by dependency name; encoding/json sorts map keys, so the encoding
// is canonical). Two stages compute the same key exactly when they would
// compute the same artifact — same definition, same inputs all the way up
// the graph.
func StageKey(name string, def any, deps map[string]string) (string, error) {
	payload := struct {
		Name string            `json:"name"`
		Def  any               `json:"def,omitempty"`
		Deps map[string]string `json:"deps,omitempty"`
	}{Name: name, Def: def, Deps: deps}
	b, err := json.Marshal(payload)
	if err != nil {
		return "", fmt.Errorf("fleaflow: stage %s: definition not serializable: %w", name, err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
