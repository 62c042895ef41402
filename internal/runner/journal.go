package runner

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// journalFormat/journalVersion identify the journal container. The header
// is the file's first line; every later line is one journalEntry.
const (
	journalFormat  = "pathfinder-journal"
	journalVersion = 1
)

type journalHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
}

type journalEntry struct {
	// Key is the cell key (index | trace | label | loads | seed): stable
	// across runs of the same grid, so a restarted sweep can match
	// journaled cells to its jobs.
	Key string `json:"key"`
	// Result is the cell's full evaluation result.
	Result Result `json:"result"`
}

// Journal is an append-only JSONL checkpoint of completed evaluation
// cells. Attach one to a Runner via Config.Journal: every successfully
// evaluated cell is appended as it completes, and cells already present
// are resumed — returned from the journal without re-execution. A journal
// is safe for concurrent use by one process; it is not a lock file and
// must not be shared between simultaneously running sweeps.
//
// Crash safety: each entry is written whole with one Write, so only the
// final line can be torn. The loader ignores (and truncates away) a torn
// or unparsable final line, so a run killed mid-write resumes from the
// last fully recorded cell; an unparsable line with data after it is
// corruption, and the load fails with its line number instead.
//
// Ledger semantics: a journal doubles as the authoritative result ledger
// of a distributed sweep (internal/dist). Duplicate entries for the same
// cell key are legal when their payloads agree — a reassigned lease whose
// original worker also finished records the same deterministic result
// twice — and Record resolves them idempotently. Entries whose payloads
// conflict are corruption: Record refuses to append them and load surfaces
// a positioned error instead of silently resolving last-wins. Payload
// comparison ignores the host wall-clock time (see PayloadEqual).
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	seen map[string]Result
}

// OpenJournal opens the journal at path, creating it (with a header line)
// if absent, and loads the already-completed cells for resume. The caller
// must Close it to release the file handle.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{f: f, path: path, seen: make(map[string]Result)}
	if err := j.load(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// load parses the existing file, records complete entries, and truncates
// a torn final line so appends continue from a clean line boundary. Any
// other unparsable line is corruption: load fails with its line number and
// leaves the file untouched rather than truncating away the valid entries
// after it. Replay validates duplicates: a key recorded twice with the
// same payload is the legal idempotent-duplicate case, but a key recorded
// twice with conflicting payloads is corruption and fails with the
// offending line number rather than silently keeping the last entry.
func (j *Journal) load() error {
	br := bufio.NewReader(j.f)
	var good int64 // offset just past the last fully parsed line
	first := true
	lineNo := 0
	for {
		line, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return fmt.Errorf("journal %s: %w", j.path, err)
		}
		complete := err == nil && len(line) > 0
		lineNo++
		if first {
			if len(line) == 0 && err == io.EOF {
				// Fresh file: stamp the header.
				hdr, _ := json.Marshal(journalHeader{Format: journalFormat, Version: journalVersion})
				if _, werr := j.f.Write(append(hdr, '\n')); werr != nil {
					return fmt.Errorf("journal %s: writing header: %w", j.path, werr)
				}
				return nil
			}
			var hdr journalHeader
			if json.Unmarshal(line, &hdr) != nil || hdr.Format != journalFormat {
				return fmt.Errorf("journal %s: not a %s file", j.path, journalFormat)
			}
			if hdr.Version != journalVersion {
				return fmt.Errorf("journal %s: unsupported version %d", j.path, hdr.Version)
			}
			if !complete {
				// A header without a newline: rewrite it cleanly.
				break
			}
			good += int64(len(line))
			first = false
			if err == io.EOF {
				break
			}
			continue
		}
		var e journalEntry
		if !complete || json.Unmarshal(line, &e) != nil || e.Key == "" {
			// Only the final line can be torn: resume from the last good
			// entry. Data after the line means it is corrupt, not torn.
			if _, perr := br.Peek(1); perr != io.EOF {
				if perr != nil {
					return fmt.Errorf("journal %s: %w", j.path, perr)
				}
				return fmt.Errorf("journal %s: line %d: corrupt entry followed by more data", j.path, lineNo)
			}
			break
		}
		if prev, ok := j.seen[e.Key]; ok && !PayloadEqual(prev, e.Result) {
			return fmt.Errorf("journal %s: line %d: conflicting duplicate entry for cell %q", j.path, lineNo, e.Key)
		}
		j.seen[e.Key] = e.Result
		good += int64(len(line))
		if err == io.EOF {
			break
		}
	}
	if first {
		// The header itself was torn; start the file over.
		if err := j.f.Truncate(0); err != nil {
			return fmt.Errorf("journal %s: %w", j.path, err)
		}
		if _, err := j.f.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("journal %s: %w", j.path, err)
		}
		hdr, _ := json.Marshal(journalHeader{Format: journalFormat, Version: journalVersion})
		if _, err := j.f.Write(append(hdr, '\n')); err != nil {
			return fmt.Errorf("journal %s: writing header: %w", j.path, err)
		}
		return nil
	}
	if err := j.f.Truncate(good); err != nil {
		return fmt.Errorf("journal %s: truncating torn tail: %w", j.path, err)
	}
	if _, err := j.f.Seek(good, io.SeekStart); err != nil {
		return fmt.Errorf("journal %s: %w", j.path, err)
	}
	return nil
}

// Completed reports how many cells the journal holds.
func (j *Journal) Completed() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.seen)
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close releases the file handle. Recording to a closed journal errors.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Lookup returns the journaled result for a cell key, if present.
func (j *Journal) Lookup(key string) (Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	res, ok := j.seen[key]
	return res, ok
}

// Record appends one completed cell. Lines are written whole under the
// journal lock, so concurrent workers cannot interleave entries.
//
// Recording a key the journal already holds is idempotent when the
// payloads agree (the duplicate is dropped, not re-appended) and an error
// when they conflict: two workers of a distributed sweep may legally race
// the same reassigned cell, but only because evaluation is deterministic —
// a payload mismatch means that guarantee broke and must not be papered
// over.
func (j *Journal) Record(key string, res Result) error {
	data, err := json.Marshal(journalEntry{Key: key, Result: res})
	if err != nil {
		return fmt.Errorf("journal: encoding %s: %w", key, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if prev, ok := j.seen[key]; ok {
		if !PayloadEqual(prev, res) {
			return fmt.Errorf("journal %s: conflicting duplicate result for cell %q", j.path, key)
		}
		return nil
	}
	if j.f == nil {
		return fmt.Errorf("journal %s: closed", j.path)
	}
	if _, err := j.f.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("journal %s: appending %s: %w", j.path, key, err)
	}
	j.seen[key] = res
	return nil
}

// payloadJSON renders the deterministic part of a Result — everything but
// the host wall-clock time — in canonical JSON for duplicate resolution.
func payloadJSON(res Result) string {
	res.Wall = 0
	b, _ := json.Marshal(res)
	return string(b)
}

// PayloadEqual reports whether two results carry the same evaluation
// payload: bit-identical metrics, baseline figures and cycle counts. The
// host wall-clock time is excluded — it measures the machine the cell ran
// on, not the evaluation, and legitimately differs between two runs of the
// same deterministic cell.
func PayloadEqual(a, b Result) bool { return payloadJSON(a) == payloadJSON(b) }
