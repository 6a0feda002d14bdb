package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"slice/internal/sim"
)

// This file generates every workload input from the seed. Nothing here
// reads a clock: the same seed always yields the same op sequence, and
// how far a lane gets through its sequence is the only thing timing
// decides.

// rng is splitmix64: small, fast, and stable across Go releases, so a
// seed names the same inputs on every toolchain.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	r := &rng{s: seed*0x9E3779B97F4A7C15 ^ (stream+1)*0xBF58476D1CE4E5B9}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// deck deals values from a fixed multiset in seeded random order,
// reshuffling when it runs out. Drawing from a deck instead of
// independently keeps the realised mix of a run at its nominal shares,
// so seeds differ in order, not in how much work of each kind they ask.
type deck struct {
	r     *rng
	cards []int
	next  int
}

func newDeck(r *rng, cards []int) *deck {
	return &deck{r: r, cards: cards, next: len(cards)}
}

func (d *deck) draw() int {
	if d.next == len(d.cards) {
		for i := len(d.cards) - 1; i > 0; i-- {
			j := d.r.intn(i + 1)
			d.cards[i], d.cards[j] = d.cards[j], d.cards[i]
		}
		d.next = 0
	}
	c := d.cards[d.next]
	d.next++
	return c
}

// patternSize bounds the largest file any workload writes.
const patternSize = 16 << 20

// pattern is the seed's byte source. A file version's content is a
// window of it, so writing costs no generation and verifying a read is
// one comparison against the expected window.
type pattern []byte

func newPattern(seed uint64) pattern {
	p := make(pattern, patternSize)
	r := newRNG(seed, 1<<32)
	for i := 0; i+8 <= len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], r.next())
	}
	return p
}

// content returns the bytes of version ver of a file of the given size,
// identified by (lane, file). Distinct versions get distinct windows.
func (p pattern) content(lane, file, ver int, size int) []byte {
	h := rng{s: uint64(lane)<<40 ^ uint64(file)<<20 ^ uint64(ver)*0x2545F4914F6CDD1D}
	off := int(h.next() % uint64(len(p)-size+1))
	return p[off : off+size]
}

// opKind names one client library call; each is one op.
type opKind uint8

const (
	opLookup opKind = iota
	opAccess
	opCreate
	opGetAttr
	opSetAttr
	opMkdir
	opRemove
	opReadDir
	opFsStat
	opRead
	opWrite
	opCommit
	numOps
)

var opNames = [numOps]string{"LOOKUP", "ACCESS", "CREATE", "GETATTR", "SETATTR", "MKDIR", "REMOVE", "READDIR", "FSSTAT", "READ", "WRITE", "COMMIT"}

func (k opKind) String() string { return opNames[k] }

// data reports whether k moves file data (READ/WRITE/COMMIT); every
// other op is a name or attribute call.
func (k opKind) data() bool { return k == opRead || k == opWrite || k == opCommit }

// step is one planned op: the call, the file or directory it targets,
// and for data calls the byte range and content version.
type step struct {
	Op   opKind
	File int // file or directory index within the lane
	Dir  int // parent directory index (untar)
	Off  int
	Len  int
	Ver  int
}

// ioChunk is the largest READ or WRITE one call issues (the NFS block
// and stripe unit).
const ioChunk = 64 << 10

// ---------------------------------------------------------------- untar

// untarDirFrac is the share of new entries that are directories.
const untarDirFrac = 0.08

// untarGen plans a lane's untar: an endless stream of entries under a
// growing tree, each file created with the paper's seven-op sequence
// (LOOKUP, ACCESS, CREATE, GETATTR, LOOKUP, SETATTR, SETATTR) and each
// directory with one MKDIR. Directory 0 is the lane's top directory.
type untarGen struct {
	r       *rng
	dirs    int // directories created so far, the top included
	entries int
}

func newUntarGen(seed uint64, lane int) *untarGen {
	return &untarGen{r: newRNG(seed, uint64(lane)), dirs: 1}
}

// next returns the steps of the next entry. For a file the new entry's
// index is in File; for a directory it is the new directory's index.
func (g *untarGen) next(buf []step) []step {
	parent := g.r.intn(g.dirs)
	buf = buf[:0]
	if g.r.float() < untarDirFrac {
		buf = append(buf, step{Op: opMkdir, Dir: parent, File: g.dirs})
		g.dirs++
		g.entries++
		return buf
	}
	f := g.entries
	g.entries++
	for _, op := range [...]opKind{opLookup, opAccess, opCreate, opGetAttr, opLookup, opSetAttr, opSetAttr} {
		buf = append(buf, step{Op: op, Dir: parent, File: f})
	}
	return buf
}

// ---------------------------------------------------------------- sfs

// sfsFiles is each lane's working-set size. Two lanes' files fit the
// µproxy's attribute (4096) and name (8192) caches with room to spare.
const sfsFiles = 300

// sfsSizes draws the lane's file sizes with the SPECsfs97 skew: 60% up
// to 8 KB, 34% from 8 to 64 KB and 6% above the 64 KB small-file
// threshold, the tail sized so it holds about three quarters of the
// bytes. Each class's sizes are spread evenly over its range with
// seeded jitter (stratified sampling), so the working set's total bytes
// barely move between seeds while every size still comes from the seed.
func sfsSizes(seed uint64, lane int) []int {
	type class struct {
		share  float64
		lo, hi int
	}
	classes := [...]class{
		{0.60, 1, 8 << 10},
		{0.34, 8 << 10, 64 << 10},
		{0.06, 128 << 10, 1344 << 10},
	}
	r := newRNG(seed, 1000+uint64(lane))
	var sizes []int
	for ci, c := range classes {
		n := int(c.share*sfsFiles + 0.5)
		if ci == len(classes)-1 {
			n = sfsFiles - len(sizes)
		}
		for i := 0; i < n; i++ {
			u := (float64(i) + r.float()) / float64(n)
			sizes = append(sizes, c.lo+int(u*float64(c.hi-c.lo)))
		}
	}
	for i := len(sizes) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		sizes[i], sizes[j] = sizes[j], sizes[i]
	}
	return sizes
}

// sfsFold maps each call of sim.SfsOpMix to the client call the
// benchmark issues for it. Calls the client does not offer are folded
// as sim.SfsOpMix folds them: READLINK into LOOKUP, READDIRPLUS into
// READDIR, FSINFO into FSSTAT.
var sfsFold = map[string]opKind{
	"getattr": opGetAttr, "setattr": opSetAttr, "lookup": opLookup,
	"access": opAccess, "readlink": opLookup, "read": opRead,
	"write": opWrite, "create": opCreate, "remove": opRemove,
	"readdir": opReadDir, "readdirplus": opReadDir, "fsstat": opFsStat,
	"fsinfo": opFsStat, "commit": opCommit,
}

// sfsDeck is one hundred calls holding the SPECsfs97 mix of
// sim.SfsOpMix exactly.
func sfsDeck() []int {
	var cards []int
	for _, m := range sim.SfsOpMix {
		op, ok := sfsFold[m.Name]
		if !ok {
			panic(fmt.Sprintf("sfs: no client call for %q", m.Name))
		}
		for n := int(math.Round(m.Frac * 100)); n > 0; n-- {
			cards = append(cards, int(op))
		}
	}
	if len(cards) != 100 {
		panic(fmt.Sprintf("sfs: sim.SfsOpMix gives %d calls per hundred", len(cards)))
	}
	return cards
}

// sfsGen plans a lane's SPECsfs97 mix over its fixed working set, one
// call per step, dealt from a deck so every hundred calls hold the
// mix exactly. Name and attribute calls each pick a file from a deck of
// the working set, so every 300 picks touch each file once. READs
// continue one sequential whole-file read stream and WRITEs one
// whole-file overwrite stream, 64 KB per call; each stream moves to the
// next file dealt when it reaches the end of its file. COMMIT commits
// the file being overwritten. CREATE makes a scratch file next to the
// working set and REMOVE removes the oldest one; set-up makes scratch
// file 0, so a REMOVE always has one to remove.
type sfsGen struct {
	calls *deck
	files *deck
	sizes []int
	vers  []int // each file's completed content version

	rf, roff         int // read stream: file and next offset
	wf, woff, wver   int // overwrite stream: file, next offset, version
	created, removed int // scratch files planned so far
}

func newSfsGen(seed uint64, lane int) *sfsGen {
	sizes := sfsSizes(seed, lane)
	r := newRNG(seed, uint64(lane))
	files := make([]int, len(sizes))
	for i := range files {
		files[i] = i
	}
	return &sfsGen{
		calls: newDeck(r, sfsDeck()), files: newDeck(r, files),
		sizes: sizes, vers: make([]int, len(sizes)),
		rf: -1, wf: -1, created: 1,
	}
}

// version is the content version the chunk of file f at off holds.
func (g *sfsGen) version(f, off int) int {
	if f == g.wf && off < g.woff {
		return g.wver
	}
	return g.vers[f]
}

func (g *sfsGen) next(buf []step) []step {
	buf = buf[:0]
	switch op := opKind(g.calls.draw()); op {
	case opRead:
		if g.rf < 0 || g.roff >= g.sizes[g.rf] {
			g.rf, g.roff = g.files.draw(), 0
		}
		s := chunk(opRead, g.rf, g.roff, g.sizes[g.rf], g.version(g.rf, g.roff))
		g.roff += s.Len
		return append(buf, s)
	case opWrite:
		if g.wf < 0 || g.woff >= g.sizes[g.wf] {
			if g.wf >= 0 {
				g.vers[g.wf] = g.wver
			}
			g.wf, g.woff = g.files.draw(), 0
			g.wver = g.vers[g.wf] + 1
		}
		s := chunk(opWrite, g.wf, g.woff, g.sizes[g.wf], g.wver)
		g.woff += s.Len
		return append(buf, s)
	case opCommit:
		return append(buf, step{Op: opCommit, File: max(g.wf, 0)})
	case opCreate:
		g.created++
		return append(buf, step{Op: opCreate, File: g.created - 1})
	case opRemove:
		g.removed++
		return append(buf, step{Op: opRemove, File: g.removed - 1})
	case opReadDir, opFsStat:
		return append(buf, step{Op: op})
	default:
		return append(buf, step{Op: op, File: g.files.draw()})
	}
}

// chunk plans the call on the 64 KB chunk of a file of the given size
// that starts at off.
func chunk(op opKind, f, off, size, ver int) step {
	return step{Op: op, File: f, Off: off, Len: min(ioChunk, size-off), Ver: ver}
}

// appendChunks plans one call per 64 KB chunk over a whole file.
func appendChunks(buf []step, op opKind, f, size, ver int) []step {
	for off := 0; off < size; off += ioChunk {
		buf = append(buf, chunk(op, f, off, size, ver))
	}
	return buf
}

// ---------------------------------------------------------------- bulk

// bulkFileSize is each lane's file: 2 MB, 32 chunks striped over the
// four storage nodes, 8× the 256 KB storage prefetch horizon. Larger
// files would leave too few name calls per run for a steady tail.
const bulkFileSize = 2 << 20

// bulkGen plans a lane's dd-like cycle on its one file: open for
// writing (LOOKUP, ACCESS), 64 KB unstable WRITEs of a fresh version,
// COMMIT, then open for reading (LOOKUP, GETATTR) and READ it all back.
type bulkGen struct {
	ver int
}

func newBulkGen(seed uint64, lane int) *bulkGen {
	// The seed picks each lane's first content version, so seeds differ
	// in every byte written while the op shapes stay the same.
	return &bulkGen{ver: newRNG(seed, uint64(lane)).intn(1 << 20)}
}

func (g *bulkGen) next(buf []step) []step {
	g.ver++
	buf = append(buf[:0], step{Op: opLookup}, step{Op: opAccess})
	buf = appendChunks(buf, opWrite, 0, bulkFileSize, g.ver)
	buf = append(buf, step{Op: opCommit, Ver: g.ver}, step{Op: opLookup, Ver: g.ver}, step{Op: opGetAttr, Ver: g.ver})
	return appendChunks(buf, opRead, 0, bulkFileSize, g.ver)
}
