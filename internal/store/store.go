package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// ErrCorrupt marks stored bytes that failed their digest or parse check.
// Callers quarantine the affected job and keep serving the rest.
var ErrCorrupt = errors.New("store: corrupt data")

// ErrNotFound marks a body or result that is absent from the store.
var ErrNotFound = errors.New("store: not found")

// ResultMeta describes a stored result: the digests that make corruption
// detectable plus an opaque caller-defined metrics blob.
type ResultMeta struct {
	// CSVSHA256 is the hex digest of the main release CSV.
	CSVSHA256 string `json:"csv_sha256"`
	// STSHA256 is the hex digest of anatomy's sensitive table, when one
	// exists.
	STSHA256 string `json:"st_sha256,omitempty"`
	// Meta is the service-defined job metrics encoding, opaque to the store.
	Meta json.RawMessage `json:"meta,omitempty"`
}

// Store is a disk-backed, crash-safe job store. All methods are safe for
// concurrent use; journal appends are serialized internally.
type Store struct {
	dir string
	fs  FS

	mu      sync.Mutex
	journal File

	tmpSeq atomic.Uint64 // numbers the temp files of writeFileAtomic
}

// Open creates (or reopens) the store under dir, replays the journal, and
// repairs a torn tail so subsequent appends start on a record boundary.
// Corruption is reported in the Replay, never as an error: an unreadable
// journal yields an empty replay and a fresh journal, because refusing to
// start would turn one bad sector into a total outage. fsys nil means the
// real filesystem.
func Open(dir string, fsys FS) (*Store, *Replay, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	for _, d := range []string{dir, filepath.Join(dir, "bodies"), filepath.Join(dir, "results")} {
		if err := fsys.MkdirAll(d); err != nil {
			return nil, nil, fmt.Errorf("store: creating %s: %w", d, err)
		}
	}
	jpath := filepath.Join(dir, "journal.log")
	rep := &Replay{}
	data, err := fsys.ReadFile(jpath)
	switch {
	case err == nil:
		rep = replayJournal(data)
		if rep.GoodBytes < int64(len(data)) {
			// Drop the torn tail on disk too, so the next append does not
			// glue new bytes onto half a record.
			if terr := fsys.Truncate(jpath, rep.GoodBytes); terr != nil {
				return nil, nil, fmt.Errorf("store: repairing journal tail: %w", terr)
			}
		}
	default:
		// Absent or unreadable journal: start fresh. An unreadable journal
		// is itself a quarantine verdict, not a fatal.
		if st, serr := fsys.Stat(jpath); serr == nil && st.Size() > 0 {
			rep.Quarantined = append(rep.Quarantined, Quarantine{
				Reason: fmt.Sprintf("journal unreadable, starting empty: %v", err),
			})
		}
	}
	j, err := fsys.OpenAppend(jpath)
	if err != nil {
		return nil, nil, fmt.Errorf("store: opening journal: %w", err)
	}
	s := &Store{dir: dir, fs: fsys, journal: j}
	return s, rep, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Append journals the given records as one durable unit: every record is
// written and the batch is fsync'd before Append returns. Callers rely on
// that barrier for acknowledge-before-202 semantics.
func (s *Store) Append(recs ...Record) error {
	var buf []byte
	for _, rec := range recs {
		line, err := encodeRecord(rec)
		if err != nil {
			return fmt.Errorf("store: encoding journal record: %w", err)
		}
		buf = append(buf, line...)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.journal.Write(buf); err != nil {
		return fmt.Errorf("store: appending journal: %w", err)
	}
	if err := s.journal.Sync(); err != nil {
		return fmt.Errorf("store: syncing journal: %w", err)
	}
	return nil
}

// Close closes the journal. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journal.Close()
}

// bodyPath returns the content-addressed path of a body digest.
func (s *Store) bodyPath(digest string) string {
	return filepath.Join(s.dir, "bodies", digest)
}

// PutBody persists a submitted CSV body content-addressed by its sha256 and
// returns the digest. Writing is atomic (temp + fsync + rename); an existing
// body with the same digest is reused without rewriting.
func (s *Store) PutBody(body []byte) (string, error) {
	sum := sha256.Sum256(body)
	digest := hex.EncodeToString(sum[:])
	path := s.bodyPath(digest)
	if st, err := s.fs.Stat(path); err == nil && st.Size() == int64(len(body)) {
		return digest, nil
	}
	if err := s.writeFileAtomic(path, body); err != nil {
		return "", fmt.Errorf("store: writing body %s: %w", digest, err)
	}
	return digest, nil
}

// GetBody loads a body by digest, verifying its content hash so a
// bit-flipped body is reported as corrupt rather than silently re-run.
func (s *Store) GetBody(digest string) ([]byte, error) {
	data, err := s.fs.ReadFile(s.bodyPath(digest))
	if err != nil {
		return nil, fmt.Errorf("store: body %s: %w", digest, ErrNotFound)
	}
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != digest {
		return nil, fmt.Errorf("store: body %s failed its digest check: %w", digest, ErrCorrupt)
	}
	return data, nil
}

// resultPaths returns the meta, csv and st paths of a submission key.
func (s *Store) resultPaths(key string) (meta, csv, st string) {
	base := filepath.Join(s.dir, "results", key)
	return base + ".json", base + ".csv", base + ".st.csv"
}

// PutResult persists a finished job's release under its submission key. The
// CSV files are written atomically first and the meta file last, so the meta
// file's presence is the commit point: a crash mid-write leaves no meta and
// the job replays as unfinished. Idempotent for a given key (results are a
// deterministic function of the key).
func (s *Store) PutResult(key string, csv, st []byte, metrics json.RawMessage) error {
	metaPath, csvPath, stPath := s.resultPaths(key)
	csvSum := sha256.Sum256(csv)
	meta := ResultMeta{CSVSHA256: hex.EncodeToString(csvSum[:]), Meta: metrics}
	if err := s.writeFileAtomic(csvPath, csv); err != nil {
		return fmt.Errorf("store: writing result %s: %w", key, err)
	}
	if st != nil {
		stSum := sha256.Sum256(st)
		meta.STSHA256 = hex.EncodeToString(stSum[:])
		if err := s.writeFileAtomic(stPath, st); err != nil {
			return fmt.Errorf("store: writing result st %s: %w", key, err)
		}
	}
	encoded, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("store: encoding result meta %s: %w", key, err)
	}
	if err := s.writeFileAtomic(metaPath, encoded); err != nil {
		return fmt.Errorf("store: writing result meta %s: %w", key, err)
	}
	return nil
}

// GetResult loads a stored result, verifying every digest. A missing meta
// file is ErrNotFound (the result was never committed); missing or
// bit-flipped content under a committed meta is ErrCorrupt, which callers
// turn into a quarantine verdict.
func (s *Store) GetResult(key string) (csv, st []byte, metrics json.RawMessage, err error) {
	metaPath, csvPath, stPath := s.resultPaths(key)
	encoded, err := s.fs.ReadFile(metaPath)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("store: result %s: %w", key, ErrNotFound)
	}
	var meta ResultMeta
	if err := json.Unmarshal(encoded, &meta); err != nil {
		return nil, nil, nil, fmt.Errorf("store: result meta %s is not valid JSON: %w", key, ErrCorrupt)
	}
	csv, err = s.fs.ReadFile(csvPath)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("store: result %s has a committed meta but no csv: %w", key, ErrCorrupt)
	}
	sum := sha256.Sum256(csv)
	if hex.EncodeToString(sum[:]) != meta.CSVSHA256 {
		return nil, nil, nil, fmt.Errorf("store: result %s failed its digest check: %w", key, ErrCorrupt)
	}
	if meta.STSHA256 != "" {
		st, err = s.fs.ReadFile(stPath)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("store: result %s has a committed meta but no st: %w", key, ErrCorrupt)
		}
		stSum := sha256.Sum256(st)
		if hex.EncodeToString(stSum[:]) != meta.STSHA256 {
			return nil, nil, nil, fmt.Errorf("store: result st %s failed its digest check: %w", key, ErrCorrupt)
		}
	}
	return csv, st, meta.Meta, nil
}

// HasResult reports whether a committed result exists for key without
// loading or verifying it.
func (s *Store) HasResult(key string) bool {
	metaPath, _, _ := s.resultPaths(key)
	_, err := s.fs.Stat(metaPath)
	return err == nil
}
