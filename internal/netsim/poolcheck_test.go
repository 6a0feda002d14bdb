//go:build poolcheck

package netsim

import (
	"strings"
	"testing"
)

// mustPanic runs f and returns the message it panicked with.
func mustPanic(t *testing.T, f func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("no panic")
			}
			msg, _ = r.(string)
		}()
		f()
	}()
	return msg
}

func TestPoolCheckPoisonsFreedBuffers(t *testing.T) {
	d := GetBuf(100)
	for i := range d {
		d[i] = 1
	}
	FreeBuf(d)
	for i, c := range d[:cap(d)] {
		if c != Poison {
			t.Fatalf("byte %d = %#x after FreeBuf, want poison %#x", i, c, Poison)
		}
	}
}

func TestPoolCheckPanicsOnDoubleFree(t *testing.T) {
	d := GetBuf(100)
	FreeBuf(d)
	msg := mustPanic(t, func() { FreeBuf(d) })
	if !strings.Contains(msg, "double FreeBuf") || !strings.Contains(msg, "TestPoolCheckPanicsOnDoubleFree") {
		t.Fatalf("panic %q does not name the double free and where the first free was", msg)
	}
}

func TestPoolCheckPanicsOnForeignClassBuffer(t *testing.T) {
	msg := mustPanic(t, func() { FreeBuf(make([]byte, 10, 4<<10)) })
	if !strings.Contains(msg, "never handed out") {
		t.Fatalf("panic %q does not name a foreign buffer", msg)
	}
	// Buffers of no class capacity are still ignored.
	FreeBuf(make([]byte, 10, 33))
}

func TestPoolCheckReportsOutstandingWithStack(t *testing.T) {
	if r := outstandingReport(); r != "" {
		t.Fatalf("pool not balanced at start:\n%s", r)
	}
	d := GetBuf(100)
	r := outstandingReport()
	FreeBuf(d)
	if !strings.Contains(r, "1 pool buffers outstanding") || !strings.Contains(r, "TestPoolCheckReportsOutstandingWithStack") {
		t.Fatalf("report does not list the buffer with its allocating test:\n%s", r)
	}
	if r := outstandingReport(); r != "" {
		t.Fatalf("report after free:\n%s", r)
	}
}
