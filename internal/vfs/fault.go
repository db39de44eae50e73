package vfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path"
	"sort"
	"sync"
)

// ErrCrashed is returned by every operation on a Fault filesystem after
// its crash failpoint has fired: the simulated disk is frozen exactly as
// a power cut would leave it. Test with errors.Is.
var ErrCrashed = errors.New("vfs: simulated crash")

// ErrInjected is wrapped by errors produced by the non-crash failpoints
// (failed write, truncated write, failed sync). Test with errors.Is.
var ErrInjected = errors.New("vfs: injected fault")

// ErrNoSpace is wrapped by write errors once the configured disk budget
// is exhausted, simulating ENOSPC. Test with errors.Is; it also matches
// ErrInjected.
var ErrNoSpace = fmt.Errorf("%w: no space left on device", ErrInjected)

// memFile is one simulated file: data is what the running process
// observes, durable is what survives a crash. Sync promotes data to
// durable; metadata operations (create-truncate, truncate, rename,
// remove) take effect on both immediately, modelling a journalling
// filesystem in ordered mode.
type memFile struct {
	data    []byte
	durable []byte
}

// Fault is a deterministic in-memory filesystem with a failpoint
// registry. The zero value is not usable; create it with NewFault.
//
// Every mutating operation (create, write, sync, truncate, rename,
// remove, directory creation) advances a step counter; CrashAtStep
// arranges for the disk to freeze at a chosen step, with the
// interrupted operation applied partially (a write persists a prefix of
// its bytes, a sync promotes a prefix of the unsynced data) — the torn
// states a real power cut produces. Image() then returns the disk as a
// recovery process would find it.
//
// All methods are safe for concurrent use, but step numbering is only
// deterministic under a single-threaded workload — which is what the
// crash harness runs.
type Fault struct {
	mu    sync.Mutex
	dirs  map[string]bool
	files map[string]*memFile

	step    int
	crashAt int
	crashed bool
	// keepUnsynced selects the crash-image loss mode: false loses every
	// unsynced byte (only fsynced data survives), true keeps them all
	// (the OS happened to write everything back before the cut). Both
	// are legal outcomes of a real crash.
	keepUnsynced bool

	writes     int
	syncs      int
	failWriteN int
	tornWriteN int
	tornWriteK int
	failSyncN  int
	budget     int64 // remaining writable bytes; negative = unlimited
	statErr    map[string]error
}

// NewFault returns an empty fault filesystem with no failpoints armed
// and an unlimited disk budget.
func NewFault() *Fault {
	return &Fault{
		dirs:   map[string]bool{".": true, "/": true},
		files:  map[string]*memFile{},
		budget: -1,
	}
}

// CrashAtStep arms the crash failpoint: the k-th mutating operation
// (1-based) is applied partially and the disk freezes. k <= 0 disarms.
func (f *Fault) CrashAtStep(k int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAt = k
}

// KeepUnsynced selects whether the crash image retains unsynced writes
// (see the type comment for the two loss modes).
func (f *Fault) KeepUnsynced(keep bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.keepUnsynced = keep
}

// FailWrite makes the n-th write (1-based, counted across all files)
// fail without writing anything.
func (f *Fault) FailWrite(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failWriteN = n
}

// TruncateWrite makes the n-th write persist only its first k bytes and
// then fail — a torn write.
func (f *Fault) TruncateWrite(n, k int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tornWriteN, f.tornWriteK = n, k
}

// FailSync makes the n-th Sync (1-based) fail without promoting any
// data to durable.
func (f *Fault) FailSync(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failSyncN = n
}

// FailNextSync makes the next Sync fail as FailSync does.
func (f *Fault) FailNextSync() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failSyncN = f.syncs + 1
}

// SetDiskBudget limits the total bytes the disk will accept; further
// writes fail with an error matching ErrNoSpace. A negative budget is
// unlimited.
func (f *Fault) SetDiskBudget(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.budget = n
}

// FailStat makes Stat of name fail with err (a non-ErrNotExist error
// simulates an unreadable entry, e.g. a permission failure).
func (f *Fault) FailStat(name string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.statErr == nil {
		f.statErr = map[string]error{}
	}
	f.statErr[path.Clean(name)] = err
}

// Steps returns the number of mutating operations performed so far; a
// workload run once without a crash bounds the crash schedule.
func (f *Fault) Steps() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.step
}

// Crashed reports whether the crash failpoint has fired.
func (f *Fault) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Image returns the disk as a crash would leave it right now: a fresh,
// un-frozen Fault holding each file's durable content (or its full
// volatile content in KeepUnsynced mode), with no failpoints armed.
func (f *Fault) Image() *Fault {
	f.mu.Lock()
	defer f.mu.Unlock()
	img := NewFault()
	for d := range f.dirs {
		img.dirs[d] = true
	}
	for name, mf := range f.files {
		src := mf.durable
		if f.keepUnsynced {
			src = mf.data
		}
		cp := append([]byte(nil), src...)
		img.files[name] = &memFile{data: cp, durable: append([]byte(nil), cp...)}
	}
	return img
}

// Content returns the current volatile content of name, for test
// assertions.
func (f *Fault) Content(name string) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	mf, ok := f.files[path.Clean(name)]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), mf.data...), true
}

// stepLocked advances the mutating-op counter and reports whether the
// crash failpoint fires on this operation.
func (f *Fault) stepLocked() bool {
	f.step++
	if f.crashAt > 0 && f.step == f.crashAt {
		f.crashed = true
		return true
	}
	return false
}

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

// MkdirAll implements FS.
func (f *Fault) MkdirAll(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	dir = path.Clean(dir)
	if f.dirs[dir] {
		return nil
	}
	if f.stepLocked() {
		return ErrCrashed
	}
	for d := dir; d != "." && d != "/"; d = path.Dir(d) {
		f.dirs[d] = true
	}
	return nil
}

// ReadDir implements FS.
func (f *Fault) ReadDir(dir string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	dir = path.Clean(dir)
	if !f.dirs[dir] {
		return nil, notExist("readdir", dir)
	}
	var names []string
	for name := range f.files {
		if path.Dir(name) == dir {
			names = append(names, path.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

// Stat implements FS.
func (f *Fault) Stat(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	name = path.Clean(name)
	if err, ok := f.statErr[name]; ok {
		return err
	}
	if _, ok := f.files[name]; ok {
		return nil
	}
	if f.dirs[name] {
		return nil
	}
	return notExist("stat", name)
}

// ReadFile implements FS.
func (f *Fault) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	mf, ok := f.files[path.Clean(name)]
	if !ok {
		return nil, notExist("open", name)
	}
	return append([]byte(nil), mf.data...), nil
}

// Open implements FS.
func (f *Fault) Open(name string) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	name = path.Clean(name)
	if _, ok := f.files[name]; !ok {
		return nil, notExist("open", name)
	}
	return &faultFile{fs: f, name: name}, nil
}

// Create implements FS. Creating (or truncating) a file is a metadata
// operation: it is durable immediately, so a crash after Create leaves
// an existing empty file — which is why the store syncs file content
// before renaming it into place.
func (f *Fault) Create(name string) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	if f.stepLocked() {
		return nil, ErrCrashed
	}
	name = path.Clean(name)
	f.files[name] = &memFile{}
	return &faultFile{fs: f, name: name}, nil
}

// OpenAppend implements FS.
func (f *Fault) OpenAppend(name string) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	name = path.Clean(name)
	if _, ok := f.files[name]; !ok {
		// Creating the file is the mutating part; opening an existing
		// one is not.
		if f.stepLocked() {
			return nil, ErrCrashed
		}
		f.files[name] = &memFile{}
	}
	return &faultFile{fs: f, name: name}, nil
}

// Rename implements FS. Rename is atomic and durable immediately (the
// metadata journal), but the renamed file's content is only as durable
// as its last sync — the POSIX behaviour that makes write/sync/rename
// the only safe publication sequence.
func (f *Fault) Rename(oldname, newname string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	if f.stepLocked() {
		return ErrCrashed
	}
	oldname, newname = path.Clean(oldname), path.Clean(newname)
	mf, ok := f.files[oldname]
	if !ok {
		return notExist("rename", oldname)
	}
	delete(f.files, oldname)
	f.files[newname] = mf
	return nil
}

// Remove implements FS.
func (f *Fault) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	if f.stepLocked() {
		return ErrCrashed
	}
	name = path.Clean(name)
	if _, ok := f.files[name]; !ok {
		return notExist("remove", name)
	}
	delete(f.files, name)
	return nil
}

// faultFile is an open handle on a Fault file. Writes append (the store
// only ever appends or rewrites after an explicit truncate); reads
// consume from the handle's own offset.
type faultFile struct {
	fs   *Fault
	name string
	pos  int64
}

func (h *faultFile) file() (*memFile, error) {
	if h.fs.crashed {
		return nil, ErrCrashed
	}
	mf, ok := h.fs.files[h.name]
	if !ok {
		return nil, notExist("file", h.name)
	}
	return mf, nil
}

// Read implements File.
func (h *faultFile) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	mf, err := h.file()
	if err != nil {
		return 0, err
	}
	if h.pos >= int64(len(mf.data)) {
		return 0, io.EOF
	}
	n := copy(p, mf.data[h.pos:])
	h.pos += int64(n)
	return n, nil
}

// Write implements File. It is the most failpoint-dense operation:
// injected write failures, torn writes, the disk budget and the crash
// schedule all apply here.
func (h *faultFile) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f := h.fs
	mf, err := h.file()
	if err != nil {
		return 0, err
	}
	f.writes++
	if f.failWriteN > 0 && f.writes == f.failWriteN {
		f.stepLocked()
		return 0, fmt.Errorf("%w: write %d failed", ErrInjected, f.writes)
	}
	if f.tornWriteN > 0 && f.writes == f.tornWriteN {
		f.stepLocked()
		k := f.tornWriteK
		if k > len(p) {
			k = len(p)
		}
		mf.data = append(mf.data, p[:k]...)
		return k, fmt.Errorf("%w: write %d torn at byte %d", ErrInjected, f.writes, k)
	}
	if f.stepLocked() {
		// Crash mid-write: a prefix of the buffer reaches the (volatile)
		// disk cache before the cut.
		mf.data = append(mf.data, p[:len(p)/2]...)
		return 0, ErrCrashed
	}
	if f.budget >= 0 {
		if avail := f.budget; avail < int64(len(p)) {
			mf.data = append(mf.data, p[:avail]...)
			f.budget = 0
			return int(avail), fmt.Errorf("write %s: %w", h.name, ErrNoSpace)
		}
		f.budget -= int64(len(p))
	}
	mf.data = append(mf.data, p...)
	return len(p), nil
}

// Sync implements File, promoting volatile data to durable. Crashing at
// a sync step promotes only a prefix of the pending bytes — the torn
// tail a real journal shows after a power cut during fsync.
func (h *faultFile) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f := h.fs
	mf, err := h.file()
	if err != nil {
		return err
	}
	f.syncs++
	if f.failSyncN > 0 && f.syncs == f.failSyncN {
		f.stepLocked()
		return fmt.Errorf("%w: sync %d failed", ErrInjected, f.syncs)
	}
	if f.stepLocked() {
		if len(mf.data) > len(mf.durable) {
			mid := len(mf.durable) + (len(mf.data)-len(mf.durable))/2
			mf.durable = append([]byte(nil), mf.data[:mid]...)
		}
		return ErrCrashed
	}
	mf.durable = append([]byte(nil), mf.data...)
	return nil
}

// Truncate implements File. Like create, truncation is metadata and
// durable immediately.
func (h *faultFile) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	mf, err := h.file()
	if err != nil {
		return err
	}
	if h.fs.stepLocked() {
		return ErrCrashed
	}
	if int64(len(mf.data)) > size {
		mf.data = mf.data[:size]
	}
	if int64(len(mf.durable)) > size {
		mf.durable = mf.durable[:size]
	}
	return nil
}

// Seek implements File (reads only; writes always append).
func (h *faultFile) Seek(offset int64, whence int) (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	mf, err := h.file()
	if err != nil {
		return 0, err
	}
	switch whence {
	case io.SeekStart:
		h.pos = offset
	case io.SeekCurrent:
		h.pos += offset
	case io.SeekEnd:
		h.pos = int64(len(mf.data)) + offset
	}
	return h.pos, nil
}

// Close implements File. Closing never syncs — exactly like the real
// thing.
func (h *faultFile) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return ErrCrashed
	}
	return nil
}
