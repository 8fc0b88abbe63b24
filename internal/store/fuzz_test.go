package store

import (
	"testing"
)

// FuzzJournalReplay throws arbitrary bytes at the journal replayer. The
// contract under test: replay never panics and never rejects a journal
// outright — corruption only ever produces quarantine verdicts, and the
// reported good-prefix length stays within the input so tail repair can
// never truncate to a bogus offset.
func FuzzJournalReplay(f *testing.F) {
	good, err := encodeRecord(Record{Op: OpAccept, ID: "j000001", Key: "k1", Body: "b1"})
	if err != nil {
		f.Fatal(err)
	}
	done, err := encodeRecord(Record{Op: OpDone, ID: "j000001", Key: "k1"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(good)
	f.Add(append(append([]byte{}, good...), done...))
	f.Add(append(append([]byte{}, good...), done[:len(done)/2]...)) // torn tail
	f.Add([]byte("deadbeef {\"op\":\"accept\",\"id\":\"x\"}\n"))    // bad checksum
	f.Add([]byte("not a journal at all\n\x00\xff\xfe"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep := replayJournal(data)
		if rep == nil {
			t.Fatal("replayJournal returned nil")
		}
		if rep.GoodBytes < 0 || rep.GoodBytes > int64(len(data)) {
			t.Fatalf("GoodBytes %d out of range for %d input bytes", rep.GoodBytes, len(data))
		}
		for _, job := range rep.Jobs {
			if job.ID == "" {
				t.Fatal("replayed job with empty ID")
			}
			switch job.Phase {
			case PhaseQueued, PhaseRunning, PhaseDone, PhaseFailed, PhaseQuarantined:
			default:
				t.Fatalf("replayed job %s with invalid phase %q", job.ID, job.Phase)
			}
		}
	})
}
