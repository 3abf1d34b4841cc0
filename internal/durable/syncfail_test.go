package durable

import (
	"os"
	"testing"
	"time"
)

// swapDeadFile replaces the active segment with a closed *os.File
// under l.mu, so every write and fsync on it fails, and returns the
// real segment for restoreFile.
func swapDeadFile(t *testing.T, l *Log) *os.File {
	t.Helper()
	dead, err := os.CreateTemp(t.TempDir(), "dead")
	if err != nil {
		t.Fatal(err)
	}
	dead.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	live := l.f
	l.f = dead
	return live
}

func restoreFile(l *Log, f *os.File) {
	l.mu.Lock()
	l.f = f
	l.mu.Unlock()
}

// assertFailStop checks that a log whose segment is healthy again
// still refuses everything after its failure: no append is
// acknowledged, Sync and Close report the failure.
func assertFailStop(t *testing.T, l *Log) {
	t.Helper()
	for i := 0; i < 3; i++ {
		if err := l.Append(recAppend, []byte("after")); err == nil {
			t.Fatalf("append %d acknowledged after a failed write or fsync", i)
		}
	}
	if err := l.Sync(); err == nil {
		t.Fatal("Sync succeeded after a failed fsync")
	}
	if err := l.Close(); err == nil {
		t.Fatal("Close hid the log's failure")
	}
}

func TestFailStopAlways(t *testing.T) {
	l, err := OpenLog(t.TempDir(), Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recAppend, []byte("before")); err != nil {
		t.Fatal(err)
	}
	live := swapDeadFile(t, l)
	if err := l.Append(recAppend, []byte("lost")); err == nil {
		t.Fatal("append acknowledged on a dead segment")
	}
	restoreFile(l, live)
	assertFailStop(t, l)
}

func TestFailStopInterval(t *testing.T) {
	l, err := OpenLog(t.TempDir(), Options{Fsync: FsyncInterval, FsyncInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recAppend, []byte("before")); err != nil {
		t.Fatal(err)
	}
	live := swapDeadFile(t, l)
	l.dirty.Store(true)
	// The interval syncer's next tick fails on the dead segment.
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		failed := l.failed
		l.mu.Unlock()
		if failed != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interval sync never reported the failed fsync")
		}
		time.Sleep(time.Millisecond)
	}
	if !l.dirty.Load() {
		t.Error("a failed fsync cleared dirty")
	}
	restoreFile(l, live)
	assertFailStop(t, l)
}

func TestFailStopRotate(t *testing.T) {
	dir := t.TempDir()
	// A one-byte segment bound rotates before every append but the
	// first; the long interval keeps the syncer out of the way, so only
	// rotation's fsync can fail.
	l, err := OpenLog(dir, Options{Fsync: FsyncInterval, FsyncInterval: time.Hour, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recAppend, []byte("before")); err != nil {
		t.Fatal(err)
	}
	live := swapDeadFile(t, l)
	if err := l.Append(recAppend, []byte("lost")); err == nil {
		t.Fatal("append acknowledged after rotation's fsync failed")
	}
	restoreFile(l, live)
	assertFailStop(t, l)
	segs, err := listIndexed(dir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("a failed log rotated on: segments %v", segs)
	}
}
