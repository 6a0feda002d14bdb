//go:build poolcheck

package netsim

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
	"unsafe"
)

// Poison is the byte FreeBuf fills a freed buffer with. A reader that
// still holds a freed buffer sees it instead of data, and GetBuf panics
// if a pooled buffer no longer holds it when handed out again: someone
// wrote to it after freeing it.
const Poison = 0xDB

// stack is a captured call stack.
type stack []uintptr

func callers() stack {
	var pcs [32]uintptr
	n := runtime.Callers(4, pcs[:])
	return append(stack(nil), pcs[:n]...)
}

func (s stack) String() string {
	var b strings.Builder
	frames := runtime.CallersFrames(s)
	for {
		f, more := frames.Next()
		fmt.Fprintf(&b, "\t%s\n\t\t%s:%d\n", f.Function, f.File, f.Line)
		if !more {
			return b.String()
		}
	}
}

// tracked holds every pool buffer handed out and not yet freed (live)
// and, for a buffer back in the pool, the stack that freed it (freed).
// Keys are buffer base addresses, so the maps keep no buffer alive.
var tracked struct {
	sync.Mutex
	live  map[uintptr]stack
	freed map[uintptr]stack
}

func init() {
	tracked.live = make(map[uintptr]stack)
	tracked.freed = make(map[uintptr]stack)
}

func baseOf(b []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(b))) }

// checkGet records a buffer GetBuf hands out; b spans its full capacity.
// A recycled buffer must still hold the poison FreeBuf left in it.
func checkGet(b []byte, recycled bool) {
	if recycled {
		for i, c := range b {
			if c != Poison {
				panic(fmt.Sprintf("netsim: pool buffer (cap %d) written at byte %d after FreeBuf", cap(b), i))
			}
		}
	}
	k := baseOf(b)
	st := callers()
	tracked.Lock()
	tracked.live[k] = st
	delete(tracked.freed, k)
	tracked.Unlock()
}

// checkFree verifies d is a live pool buffer, untracks it and poisons it.
func checkFree(d []byte) {
	k := baseOf(d)
	st := callers()
	tracked.Lock()
	_, ok := tracked.live[k]
	first := tracked.freed[k]
	if ok {
		delete(tracked.live, k)
		tracked.freed[k] = st
	}
	tracked.Unlock()
	if !ok {
		if first != nil {
			panic(fmt.Sprintf("netsim: double FreeBuf of a pool buffer (cap %d); first freed at:\n%s", cap(d), first))
		}
		panic(fmt.Sprintf("netsim: FreeBuf of a class-capacity buffer (cap %d) GetBuf never handed out", cap(d)))
	}
	d = d[:cap(d)]
	for i := range d {
		d[i] = Poison
	}
}

// outstandingReport describes every pool buffer still outstanding,
// grouped by the stack that allocated it, most frequent first; "" when
// none is.
func outstandingReport() string {
	tracked.Lock()
	counts := make(map[string]int)
	for _, st := range tracked.live {
		counts[st.String()]++
	}
	n := len(tracked.live)
	tracked.Unlock()
	if n == 0 {
		return ""
	}
	sites := make([]string, 0, len(counts))
	for s := range counts {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool { return counts[sites[i]] > counts[sites[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "netsim: %d pool buffers outstanding, from %d allocation sites:\n", n, len(sites))
	for _, s := range sites {
		fmt.Fprintf(&b, "%d allocated at:\n%s", counts[s], s)
	}
	return b.String()
}

// RunPoolChecked runs a test binary's tests, then waits for the pool to
// settle and fails the binary if any buffer is still outstanding,
// printing each one's allocation stack. Use it as TestMain's body:
//
//	func TestMain(m *testing.M) { os.Exit(netsim.RunPoolChecked(m)) }
func RunPoolChecked(m interface{ Run() int }) int {
	code := m.Run()
	deadline := time.Now().Add(5 * time.Second)
	for PoolStats().Outstanding() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if r := outstandingReport(); r != "" {
		fmt.Fprint(os.Stderr, r)
		if code == 0 {
			code = 1
		}
	}
	return code
}
