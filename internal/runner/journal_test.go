package runner

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testResult(traceName, pf string) Result {
	return Result{
		Metrics: Metrics{
			Prefetcher: pf, Trace: traceName,
			IPC: 1.25, Accuracy: 0.5, Coverage: 0.25,
			Issued: 100, Useful: 50, BaselineMisses: 200,
		},
		BaselineIPC: 1.0,
		Cycles:      12345,
		Wall:        42 * time.Millisecond,
	}
}

// TestJournalRoundTrip records cells, reopens the file, and checks the
// loaded state is identical.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Result{
		"0|cc-5|BO|1000|1":   testResult("cc-5", "BO"),
		"1|cc-5|PF|1000|1":   testResult("cc-5", "PF"),
		"2|bfs-10|BO|1000|1": testResult("bfs-10", "BO"),
	}
	for k, res := range want {
		if err := j.Record(k, res); err != nil {
			t.Fatal(err)
		}
	}
	if j.Completed() != len(want) {
		t.Fatalf("Completed = %d, want %d", j.Completed(), len(want))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Completed() != len(want) {
		t.Fatalf("reloaded Completed = %d, want %d", j2.Completed(), len(want))
	}
	for k, res := range want {
		got, ok := j2.Lookup(k)
		if !ok {
			t.Fatalf("key %q missing after reload", k)
		}
		if got != res {
			t.Errorf("key %q: reloaded %+v != recorded %+v", k, got, res)
		}
	}
	if _, ok := j2.Lookup("9|zz|zz|1|1"); ok {
		t.Error("lookup of unknown key succeeded")
	}
}

// TestJournalTornTail simulates a crash mid-append: the torn final line is
// dropped, the complete entries survive, and recording continues cleanly.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("0|cc-5|BO|1000|1", testResult("cc-5", "BO")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Append a torn (newline-less, truncated) entry, as a kill -9 would.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"1|cc-5|PF|1000|1","result":{"IPC":1.`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	if j2.Completed() != 1 {
		t.Fatalf("Completed = %d, want 1 (torn entry dropped)", j2.Completed())
	}
	if _, ok := j2.Lookup("0|cc-5|BO|1000|1"); !ok {
		t.Fatal("intact entry lost with the torn tail")
	}
	// The file must be clean again: record and reload.
	if err := j2.Record("1|cc-5|PF|1000|1", testResult("cc-5", "PF")); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Completed() != 2 {
		t.Fatalf("after re-record Completed = %d, want 2", j3.Completed())
	}
}

// TestJournalCorruptMiddleLine checks that only the final line is treated
// as a torn tail: an unparsable line with entries after it fails the load
// with its line number and leaves the file untouched, instead of
// truncating away the valid entries that follow it.
func TestJournalCorruptMiddleLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := j.Record(k, testResult("cc-5", k)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if !strings.HasPrefix(lines[2], `{"key":"b"`) {
		t.Fatalf("line 3 = %q, want entry b", lines[2])
	}
	lines[2] = "X" + lines[2][1:]
	corrupt := []byte(strings.Join(lines, ""))
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenJournal(path); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("OpenJournal with a corrupt middle line: err = %v, want a line 3 error", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(corrupt) {
		t.Fatalf("failed load modified the file:\n got %q\nwant %q", after, corrupt)
	}
}

// TestJournalRejectsForeignFile checks that a non-journal file errors
// instead of being silently truncated or treated as empty.
func TestJournalRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notes.txt")
	if err := os.WriteFile(path, []byte("just some notes\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path); err == nil || !strings.Contains(err.Error(), "not a pathfinder-journal") {
		t.Fatalf("OpenJournal on a foreign file: err = %v, want format rejection", err)
	}
}

// TestJournalHeaderFormat pins the on-disk format: a JSON header line then
// one JSON entry per line, so external tooling can rely on it.
func TestJournalHeaderFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("0|cc-5|BO|1000|1", testResult("cc-5", "BO")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("journal has %d lines, want 2 (header + entry)", len(lines))
	}
	var hdr journalHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || hdr.Format != journalFormat || hdr.Version != journalVersion {
		t.Fatalf("header line %q: %+v, %v", lines[0], hdr, err)
	}
	var e journalEntry
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil || e.Key == "" || e.Result.IPC != 1.25 {
		t.Fatalf("entry line %q: %+v, %v", lines[1], e, err)
	}
}

// TestJournalDuplicateResolution pins the ledger semantics distributed
// reassignment depends on: recording an identical payload twice is an
// idempotent no-op (the wall clock may differ — it is not payload), while
// a conflicting payload is refused.
func TestJournalDuplicateResolution(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	key := "0|cc-5|BO|1000|1"
	res := testResult("cc-5", "BO")
	if err := j.Record(key, res); err != nil {
		t.Fatal(err)
	}
	dup := res
	dup.Wall = res.Wall * 7 // a slower worker finishing the same cell
	if err := j.Record(key, dup); err != nil {
		t.Fatalf("idempotent duplicate refused: %v", err)
	}
	if j.Completed() != 1 {
		t.Fatalf("Completed = %d after idempotent duplicate, want 1", j.Completed())
	}
	conflict := res
	conflict.Cycles++
	if err := j.Record(key, conflict); err == nil || !strings.Contains(err.Error(), "conflicting duplicate") {
		t.Fatalf("conflicting duplicate: err = %v, want conflict error", err)
	}
	// The duplicate was dropped on disk too: the file holds one entry.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 2 {
		t.Fatalf("journal has %d lines, want 2 (header + single entry)", n)
	}
}

// TestJournalReplayConflict pins the replay half: a ledger whose file holds
// two conflicting entries for one key fails to load with the offending
// line position, instead of silently resolving last-wins.
func TestJournalReplayConflict(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("0|cc-5|BO|1000|1", testResult("cc-5", "BO")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Forge a conflicting entry for the same key, as a buggy writer would.
	conflict := testResult("cc-5", "BO")
	conflict.IPC = 9.99
	line, err := json.Marshal(journalEntry{Key: "0|cc-5|BO|1000|1", Result: conflict})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(append(line, '\n'))
	f.Close()

	_, err = OpenJournal(path)
	if err == nil || !strings.Contains(err.Error(), "conflicting duplicate") || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("replay of conflicting ledger: err = %v, want positioned conflict error", err)
	}

	// The identical-duplicate case stays legal on replay too.
	same, err := json.Marshal(journalEntry{Key: "1|cc-5|PF|1000|1", Result: testResult("cc-5", "PF")})
	if err != nil {
		t.Fatal(err)
	}
	path2 := filepath.Join(t.TempDir(), "dup.journal")
	j2, err := OpenJournal(path2)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Record("1|cc-5|PF|1000|1", testResult("cc-5", "PF")); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	f2, err := os.OpenFile(path2, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f2.Write(append(same, '\n'))
	f2.Close()
	j3, err := OpenJournal(path2)
	if err != nil {
		t.Fatalf("replay with identical duplicate: %v", err)
	}
	defer j3.Close()
	if j3.Completed() != 1 {
		t.Fatalf("Completed = %d, want 1", j3.Completed())
	}
}

// TestPayloadEqual pins what "payload" means: everything but Wall.
func TestPayloadEqual(t *testing.T) {
	a := testResult("cc-5", "BO")
	b := a
	b.Wall = a.Wall + time.Second
	if !PayloadEqual(a, b) {
		t.Error("results differing only in Wall compare unequal")
	}
	b.Useful++
	if PayloadEqual(a, b) {
		t.Error("results differing in Useful compare equal")
	}
}

// TestJournalRecordAfterClose checks the error path rather than a crash.
func TestJournalRecordAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := j.Record("k", Result{}); err == nil {
		t.Error("record on a closed journal succeeded")
	}
}

// FuzzOpenJournal feeds arbitrary bytes to the journal loader. It must
// never panic; a journal that opens must reopen to the same cells, and a
// cell recorded after the load must survive a further reopen.
func FuzzOpenJournal(f *testing.F) {
	hdr, _ := json.Marshal(journalHeader{Format: journalFormat, Version: journalVersion})
	entry := func(key string) string {
		b, _ := json.Marshal(journalEntry{Key: key, Result: testResult("cc-5", key)})
		return string(b) + "\n"
	}
	valid := string(hdr) + "\n" + entry("a") + entry("b")
	f.Add([]byte(valid))
	f.Add([]byte(valid + `{"key":"c","result":{"IPC":1.`))
	f.Add([]byte(string(hdr) + "\n" + entry("a") + "X" + entry("b")[1:] + entry("c")))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if err != nil {
			return
		}
		want := make(map[string]Result, len(j.seen))
		for k, v := range j.seen {
			want[k] = v
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		check := func(j *Journal) {
			t.Helper()
			if j.Completed() != len(want) {
				t.Fatalf("reopened Completed = %d, want %d", j.Completed(), len(want))
			}
			for k, res := range want {
				if got, ok := j.Lookup(k); !ok || got != res {
					t.Fatalf("reopened Lookup(%q) = %+v, %v; want %+v", k, got, ok, res)
				}
			}
		}

		j2, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("reopening a journal that opened: %v", err)
		}
		check(j2)
		key := "fuzz-new"
		for _, taken := want[key]; taken; _, taken = want[key] {
			key += "+"
		}
		res := testResult("fuzz", key)
		if err := j2.Record(key, res); err != nil {
			t.Fatal(err)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		want[key] = res

		j3, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("reopening after Record: %v", err)
		}
		defer j3.Close()
		check(j3)
	})
}
