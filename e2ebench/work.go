package main

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"

	"slice/internal/attr"
	"slice/internal/ensemble"
	"slice/internal/fhandle"
	"slice/internal/nfsproto"
	"slice/internal/route"
)

// workloads are the benchmark's traffic mixes. README.md gives the
// reason each was chosen.
var workloads = map[string]*workload{
	"untar": {
		name: "untar",
		config: ensemble.Config{
			StorageNodes: 4, DirServers: 2, SmallFileServers: 2, Coordinator: true,
			NameKind: route.MkdirSwitching, MkdirP: 0.25, Proxies: 2,
		},
		transport: viaNetsim,
		lanes:     2,
		warmupOps: 40000,
		newWorker: func(seed uint64, lane int) worker { return &untarWorker{gen: newUntarGen(seed, lane)} },
	},
	"sfs": {
		name: "sfs",
		config: ensemble.Config{
			StorageNodes: 4, DirServers: 2, SmallFileServers: 2, Coordinator: true,
			NameKind: route.MkdirSwitching, MkdirP: 0.25, Replication: 2,
		},
		transport: viaUDP,
		// Like SPECsfs's load generators, each lane issues one RPC at a
		// time; the bulk window is bulk's subject.
		serial:    true,
		lanes:     1,
		warmupOps: 10000,
		newWorker: func(seed uint64, lane int) worker { return &sfsWorker{gen: newSfsGen(seed, lane)} },
	},
	"bulk": {
		name: "bulk",
		config: ensemble.Config{
			StorageNodes: 4, DirServers: 1, Coordinator: true, TCPListen: "127.0.0.1:0",
		},
		transport: viaTCP,
		lanes:     1,
		warmupOps: 3000,
		newWorker: func(seed uint64, lane int) worker { return &bulkWorker{gen: newBulkGen(seed, lane)} },
	},
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// sameHandle compares handles by identity.
func sameHandle(a, b fhandle.Handle) bool { return fhandle.HandleKey(a) == fhandle.HandleKey(b) }

// ---------------------------------------------------------------- untar

type untarWorker struct {
	gen *untarGen
	// dirs[i] is directory i's handle; kids[i] counts the entries made
	// in it, the expectation the end-of-run check holds it to, or is -1
	// when its MKDIR failed (entries planned under it are skipped).
	dirs    []fhandle.Handle
	kids    []int
	fh      fhandle.Handle // the file the current entry created
	created bool           // the current entry's CREATE succeeded
	sets    int            // SETATTRs issued in the current entry
}

func (u *untarWorker) prepare(l *lane) error {
	top, _, err := l.c.Mkdir(l.c.Root(), "u"+strconv.Itoa(l.id), 0o755)
	if err != nil {
		return err
	}
	u.dirs, u.kids = []fhandle.Handle{top}, []int{0}
	return nil
}

func (u *untarWorker) next(buf []step) []step {
	u.created, u.sets = false, 0
	return u.gen.next(buf)
}

func (u *untarWorker) exec(l *lane, s step) bool {
	if u.kids[s.Dir] < 0 {
		if s.Op == opMkdir {
			u.dirs = append(u.dirs, fhandle.Handle{})
			u.kids = append(u.kids, -1)
		}
		return false
	}
	dir := u.dirs[s.Dir]
	c := l.c
	switch s.Op {
	case opMkdir:
		name := "d" + strconv.Itoa(s.File)
		t0 := l.begin()
		fh, _, err := c.Mkdir(dir, name, 0o755)
		l.end(s.Op, t0, err)
		if err != nil {
			fh, err = settle(l, dir, name)
		}
		u.dirs = append(u.dirs, fh)
		if err != nil {
			u.kids = append(u.kids, -1)
			return false
		}
		u.kids = append(u.kids, 0)
		u.kids[s.Dir]++
	case opLookup:
		name := "f" + strconv.Itoa(s.File)
		t0 := l.begin()
		fh, _, err := c.Lookup(dir, name)
		if !u.created {
			// The pre-create lookup: the name must not exist yet.
			if nfsproto.StatusOf(err) == nfsproto.ErrNoEnt {
				err = nil
			} else if err == nil {
				err = fmt.Errorf("%s exists before its create", name)
			}
			l.end(s.Op, t0, err)
			return err == nil
		}
		l.end(s.Op, t0, err)
		if err != nil {
			return false
		}
		if !sameHandle(fh, u.fh) {
			l.mismatch(s.Op, "%s resolved to another handle", name)
			return false
		}
	case opAccess:
		t0 := l.begin()
		_, err := c.Access(dir, nfsproto.AccessModify)
		l.end(s.Op, t0, err)
		if err != nil {
			return false
		}
	case opCreate:
		name := "f" + strconv.Itoa(s.File)
		t0 := l.begin()
		fh, _, err := c.Create(dir, name, 0o644, true)
		l.end(s.Op, t0, err)
		if err != nil {
			if _, err := settle(l, dir, name); err == nil {
				u.kids[s.Dir]++
			}
			return false
		}
		u.fh, u.created = fh, true
		u.kids[s.Dir]++
	case opGetAttr:
		t0 := l.begin()
		at, err := c.GetAttr(u.fh)
		l.end(s.Op, t0, err)
		if err != nil {
			return false
		}
		if at.Type != attr.TypeReg || at.Size != 0 {
			l.mismatch(s.Op, "new file has type %v size %d", at.Type, at.Size)
		}
	case opSetAttr:
		mode := uint32(0o644)
		if u.sets > 0 {
			mode = 0o444
		}
		u.sets++
		t0 := l.begin()
		at, err := c.SetAttr(u.fh, attr.SetAttr{SetMode: true, Mode: mode})
		l.end(s.Op, t0, err)
		if err != nil {
			return false
		}
		if at.Mode&0o777 != mode {
			l.mismatch(s.Op, "mode %o after setting %o", at.Mode&0o777, mode)
		}
	}
	return true
}

// settle learns, with an untimed LOOKUP, whether a CREATE, MKDIR or
// REMOVE that returned an error took effect anyway: the failed call is
// already counted, and only the lane makes or removes names in its
// directories, so what the LOOKUP finds is the lane's own doing. That
// happens when a retransmission of a call the server performed is
// answered from outside the duplicate-request cache.
func settle(l *lane, dir fhandle.Handle, name string) (fhandle.Handle, error) {
	fh, _, err := l.c.Lookup(dir, name)
	return fh, err
}

// check lists every directory the lane made and compares its entries
// with the entries the lane created in it.
func (u *untarWorker) check(l *lane) error {
	for i, d := range u.dirs {
		if u.kids[i] < 0 {
			continue
		}
		ents, err := l.c.ReadDir(d)
		if err != nil {
			return fmt.Errorf("untar check: readdir of directory %d: %w", i, err)
		}
		if n := len(ents); n != u.kids[i] {
			return fmt.Errorf("untar check: directory %d holds %d entries, %d were created", i, n, u.kids[i])
		}
	}
	return nil
}

// ---------------------------------------------------------------- sfs

type sfsWorker struct {
	gen   *sfsGen
	pat   pattern
	dir   fhandle.Handle
	files []fhandle.Handle
	names []string
	// poison marks files a WRITE or COMMIT failed on: their contents
	// are unknown, so their READs go unverified.
	poison []bool
	// scratch counts the scratch files in the directory.
	scratch int
}

func scratchName(i int) string { return "t" + strconv.Itoa(i) }

func (w *sfsWorker) prepare(l *lane) error {
	w.pat = l.run.pat
	dir, _, err := l.c.Mkdir(l.c.Root(), "s"+strconv.Itoa(l.id), 0o755)
	if err != nil {
		return err
	}
	w.dir = dir
	n := len(w.gen.sizes)
	w.files = make([]fhandle.Handle, n)
	w.names = make([]string, n)
	w.poison = make([]bool, n)
	for f, size := range w.gen.sizes {
		w.names[f] = "f" + strconv.Itoa(f)
		fh, _, err := l.c.Create(dir, w.names[f], 0o644, true)
		if err != nil {
			return fmt.Errorf("create %s: %w", w.names[f], err)
		}
		if err := l.c.WriteFile(fh, w.pat.content(l.id, f, 0, size)); err != nil {
			return fmt.Errorf("write %s: %w", w.names[f], err)
		}
		w.files[f] = fh
	}
	if _, _, err := l.c.Create(dir, scratchName(0), 0o644, true); err != nil {
		return fmt.Errorf("create %s: %w", scratchName(0), err)
	}
	w.scratch = 1
	return nil
}

func (w *sfsWorker) next(buf []step) []step { return w.gen.next(buf) }

func (w *sfsWorker) exec(l *lane, s step) bool {
	c := l.c
	switch s.Op {
	case opLookup:
		t0 := l.begin()
		fh, _, err := c.Lookup(w.dir, w.names[s.File])
		l.end(s.Op, t0, err)
		if err == nil && !sameHandle(fh, w.files[s.File]) {
			l.mismatch(s.Op, "%s resolved to another handle", w.names[s.File])
		}
	case opGetAttr:
		t0 := l.begin()
		at, err := c.GetAttr(w.files[s.File])
		l.end(s.Op, t0, err)
		if err == nil && at.Size != uint64(w.gen.sizes[s.File]) {
			l.mismatch(s.Op, "%s size %d, want %d", w.names[s.File], at.Size, w.gen.sizes[s.File])
		}
	case opSetAttr:
		t0 := l.begin()
		at, err := c.SetAttr(w.files[s.File], attr.SetAttr{SetMode: true, Mode: 0o644})
		l.end(s.Op, t0, err)
		if err == nil && at.Mode&0o777 != 0o644 {
			l.mismatch(s.Op, "%s mode %o after setting 644", w.names[s.File], at.Mode&0o777)
		}
	case opAccess:
		t0 := l.begin()
		_, err := c.Access(w.files[s.File], nfsproto.AccessRead)
		l.end(s.Op, t0, err)
	case opReadDir:
		t0 := l.begin()
		ents, err := c.ReadDir(w.dir)
		l.end(s.Op, t0, err)
		if want := len(w.files) + w.scratch; err == nil && len(ents) != want {
			l.mismatch(s.Op, "directory lists %d entries, want %d", len(ents), want)
		}
	case opFsStat:
		t0 := l.begin()
		_, err := c.FsStat(w.dir)
		l.end(s.Op, t0, err)
	case opCreate:
		name := scratchName(s.File)
		t0 := l.begin()
		_, _, err := c.Create(w.dir, name, 0o644, true)
		l.end(s.Op, t0, err)
		if err != nil {
			_, err = settle(l, w.dir, name)
		}
		if err == nil {
			w.scratch++
		}
	case opRemove:
		name := scratchName(s.File)
		t0 := l.begin()
		err := c.Remove(w.dir, name)
		l.end(s.Op, t0, err)
		if err != nil {
			_, err = settle(l, w.dir, name)
			if nfsproto.StatusOf(err) != nfsproto.ErrNoEnt {
				break
			}
		}
		w.scratch--
	case opRead:
		return l.readChunk(w.files[s.File], w.pat.content(l.id, s.File, s.Ver, w.gen.sizes[s.File]), s, !w.poison[s.File])
	case opWrite:
		if !l.writeChunk(w.files[s.File], w.pat.content(l.id, s.File, s.Ver, w.gen.sizes[s.File]), s) {
			w.poison[s.File] = true
		}
	case opCommit:
		t0 := l.begin()
		_, err := c.Commit(w.files[s.File])
		l.end(s.Op, t0, err)
		if err != nil {
			w.poison[s.File] = true
		}
	}
	return true
}

func (w *sfsWorker) check(l *lane) error { return nil }

// readChunk issues one READ of s's range and, when verify is set,
// compares every byte with want (the whole file's expected content).
func (l *lane) readChunk(fh fhandle.Handle, want []byte, s step, verify bool) bool {
	buf := l.buf[:s.Len]
	t0 := l.begin()
	n, _, err := l.c.Read(fh, uint64(s.Off), buf)
	l.end(s.Op, t0, err)
	if err != nil {
		return false
	}
	if l.cur == phaseMeasure || l.cur == phaseTraced {
		l.ph[l.cur].readBytes += int64(n)
	}
	if verify && (n != s.Len || !bytes.Equal(buf[:n], want[s.Off:s.Off+s.Len])) {
		l.mismatch(s.Op, "read of %d bytes at %d returned %d bytes that differ from what was written", s.Len, s.Off, n)
		return false
	}
	return true
}

// writeChunk issues one unstable WRITE of s's range of content.
func (l *lane) writeChunk(fh fhandle.Handle, content []byte, s step) bool {
	t0 := l.begin()
	_, err := l.c.Write(fh, uint64(s.Off), content[s.Off:s.Off+s.Len], false)
	l.end(s.Op, t0, err)
	if err != nil {
		return false
	}
	if l.cur == phaseMeasure || l.cur == phaseTraced {
		l.ph[l.cur].writeBytes += int64(s.Len)
	}
	return true
}

// ---------------------------------------------------------------- bulk

type bulkWorker struct {
	gen    *bulkGen
	pat    pattern
	dir    fhandle.Handle
	fh     fhandle.Handle
	poison bool
}

const bulkName = "data"

func (w *bulkWorker) prepare(l *lane) error {
	w.pat = l.run.pat
	dir, _, err := l.c.Mkdir(l.c.Root(), "b"+strconv.Itoa(l.id), 0o755)
	if err != nil {
		return err
	}
	w.dir = dir
	fh, _, err := l.c.Create(dir, bulkName, 0o644, true)
	if err != nil {
		return err
	}
	w.fh = fh
	return l.c.WriteFile(fh, w.pat.content(l.id, 0, w.gen.ver, bulkFileSize))
}

func (w *bulkWorker) next(buf []step) []step { return w.gen.next(buf) }

func (w *bulkWorker) exec(l *lane, s step) bool {
	c := l.c
	switch s.Op {
	case opLookup:
		t0 := l.begin()
		fh, _, err := c.Lookup(w.dir, bulkName)
		l.end(s.Op, t0, err)
		if err != nil {
			return false
		}
		if !sameHandle(fh, w.fh) {
			l.mismatch(s.Op, "%s resolved to another handle", bulkName)
			return false
		}
	case opAccess:
		t0 := l.begin()
		_, err := c.Access(w.fh, nfsproto.AccessModify)
		l.end(s.Op, t0, err)
		return err == nil
	case opWrite:
		if !l.writeChunk(w.fh, w.pat.content(l.id, 0, s.Ver, bulkFileSize), s) {
			w.poison = true
			return false
		}
	case opCommit:
		t0 := l.begin()
		_, err := c.Commit(w.fh)
		l.end(s.Op, t0, err)
		if err != nil {
			w.poison = true
			return false
		}
		w.poison = false
	case opGetAttr:
		t0 := l.begin()
		at, err := c.GetAttr(w.fh)
		l.end(s.Op, t0, err)
		if err != nil {
			return false
		}
		if at.Size != bulkFileSize {
			l.mismatch(s.Op, "size %d, want %d", at.Size, bulkFileSize)
		}
	case opRead:
		return l.readChunk(w.fh, w.pat.content(l.id, 0, s.Ver, bulkFileSize), s, !w.poison)
	}
	return true
}

func (w *bulkWorker) check(l *lane) error { return nil }
