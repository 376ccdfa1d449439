// Package store is the content-addressed result store: the simulation
// database a sweep server accumulates as it runs. A finished replica
// job's output is a pure function of (spec fingerprint, master seed,
// point index, replica index) — the repo's determinism contract — so
// the store indexes artifacts by exactly that tuple and any later sweep
// that derives the same key gets the finished bytes back instead of
// recomputing them.
//
// Layout under the root (modeled on dagu's file-based persistence and
// git's object/ref split):
//
//	objects/<sha256>      artifact bytes, content-addressed, immutable
//	index/<key-id>        one line: the sha256 of the key's content
//	quarantine/           torn or corrupt files moved aside, never served
//
// Writes are atomic (temp file + fsync + rename, both layers), and the
// index is input-addressed over content-addressed objects: publishing
// the same key twice with identical bytes is an idempotent ack, while
// publishing different bytes under an existing key is a conflict error
// — the determinism violation is detected, never silently resolved.
// Every read re-hashes the object and compares against the index; a
// mismatch (disk corruption, torn write that survived rename) moves the
// object to quarantine and reports a miss, so callers fall back to
// recomputation instead of serving garbage. There is one verified read
// (readObject): it reads the object in chunks into a buffer the caller
// may supply and reuse (GetInto, GetBySHA), grown only when too short,
// hashes each chunk as it lands, and returns exactly the bytes it hashed
// — or, on a mismatch, none. The content hash doubles as the artifact's
// strong HTTP ETag, so a reader serving the bytes takes its ETag from the
// read, not from hashing them again.
//
//dsmclint:layer store
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Key identifies one artifact by the inputs that determine its bits:
// the quantity-inclusive spec fingerprint, the sweep's master seed, the
// point (scenario) index, and the replica index.
type Key struct {
	// Kind tags the artifact type: "out" (one replica's output,
	// EncodeOutput's frame) or "res" (a sweep's encoded result, JSON; Point and Replica
	// then carry the point and replica counts). dsmcd's
	// "view-<result sha256>-<quantity>" IDs are keyed by content and are
	// not built from a Key. A point's aggregate is not an artifact: the
	// merge of outputs already in hand is cheaper than a verified read of
	// its result, so index entries of the former "agg" kind are never
	// looked up and may be deleted.
	Kind string
	// Fp is the spec fingerprint extended with the requested quantities
	// (the trajectory fingerprint alone under-identifies an artifact:
	// outputs carry derived fields, which depend on what was sampled).
	Fp uint64
	// Seed is the sweep's master seed; each job's seed derives from it
	// and the (point, replica) coordinates, so the tuple pins the bits.
	Seed uint64
	// Point is the scenario index within the sweep — part of the seed
	// derivation, so the same physics at a different index is a
	// different artifact.
	Point int
	// Replica is the replica index for "out" artifacts.
	Replica int
}

// ID renders the key as its canonical, filesystem-safe index name.
func (k Key) ID() string {
	return fmt.Sprintf("%s-%016x-%016x-p%03d-r%03d", k.Kind, k.Fp, k.Seed, k.Point, k.Replica)
}

// Entry is one index row of the store listing.
type Entry struct {
	ID     string `json:"key"`
	SHA256 string `json:"sha256"`
	Size   int64  `json:"size"`
}

// Store is a content-addressed artifact store rooted at one directory.
// All methods are safe for concurrent use; the in-memory index mirrors
// the on-disk one and is authoritative between Opens.
type Store struct {
	root string

	mu    sync.Mutex
	index map[string]string // key ID → content sha256 (hex)
	sizes map[string]int64  // sha256 → object size in bytes
	bytes int64             // total object bytes (including unreferenced)
}

// Open opens (creating if needed) a store rooted at dir and runs the
// recovery sweep: every *.tmp orphan left by a crashed atomic write is
// moved to quarantine/, and every index entry is validated against its
// object's existence — a dangling or malformed entry is quarantined and
// dropped rather than served.
func Open(dir string) (*Store, error) {
	s := &Store{
		root:  dir,
		index: map[string]string{},
		sizes: map[string]int64{},
	}
	for _, sub := range []string{s.objectsDir(), s.indexDir(), s.quarantineDir()} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
	}
	if err := s.sweepOrphans(); err != nil {
		return nil, err
	}
	objs, err := os.ReadDir(s.objectsDir())
	if err != nil {
		return nil, err
	}
	for _, e := range objs {
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		s.sizes[e.Name()] = info.Size()
		s.bytes += info.Size()
	}
	idx, err := os.ReadDir(s.indexDir())
	if err != nil {
		return nil, err
	}
	for _, e := range idx {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(s.indexDir(), e.Name())
		raw, err := os.ReadFile(path)
		sha := strings.TrimSpace(string(raw))
		if err != nil || !validSHA(sha) {
			s.quarantine(path)
			continue
		}
		if _, ok := s.sizes[sha]; !ok {
			// Dangling reference: the object never made it (or was lost).
			// Quarantine the entry so the key reads as a clean miss and a
			// recompute can republish it.
			s.quarantine(path)
			continue
		}
		s.index[e.Name()] = sha
	}
	return s, nil
}

// Lookup resolves a key to its content hash from the index alone — no
// object I/O, no hit or miss counted. It answers "which bytes would Get
// return" for callers that only need the identity (a 304).
func (s *Store) Lookup(id string) (sha string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sha, ok = s.index[id]
	return sha, ok
}

// Get returns a key's artifact bytes and content hash after verifying
// the bytes against the index: GetInto with a buffer of its own.
func (s *Store) Get(id string) (data []byte, sha string, ok bool) {
	return s.GetInto(id, nil)
}

// GetInto is Get reading into buf, which it grows only when buf is
// shorter than the object: the returned bytes are the object's, backed by
// buf or by its replacement, and buf's earlier contents are never
// returned. A corrupt object is quarantined — along with every index
// entry referencing it — and reported as a miss, so the caller recomputes
// instead of serving garbage.
func (s *Store) GetInto(id string, buf []byte) (data []byte, sha string, ok bool) {
	sha, data, _, ok = s.get(id, buf, true)
	return data, sha, ok
}

// Verify is Get for a caller that needs a key's content hash and size
// but not its bytes (a sweep asking, as it is registered, whether its
// result is stored): the object is hashed through one chunk-sized buffer
// and never held in memory, and is quarantined and counted exactly as Get
// would.
func (s *Store) Verify(id string) (sha string, size int64, ok bool) {
	sha, _, size, ok = s.get(id, nil, false)
	return sha, size, ok
}

// get is a memoization probe, GetInto's or Verify's: one hit or one miss.
func (s *Store) get(id string, buf []byte, keep bool) (sha string, data []byte, size int64, ok bool) {
	if sha, ok = s.Lookup(id); ok {
		data, size, ok = s.read(sha, buf, keep)
	}
	if !ok {
		mMisses.Inc()
		return "", nil, 0, false
	}
	mHits.Inc()
	return sha, data, size, true
}

// GetBySHA returns an object's bytes by content hash, read into buf and
// verified like GetInto. It counts neither hit nor miss: it is a read of
// content already located (an HTTP artifact route, a result being
// served), not a memoization probe.
func (s *Store) GetBySHA(sha string, buf []byte) ([]byte, bool) {
	if !s.Has(sha) {
		return nil, false
	}
	data, _, ok := s.read(sha, buf, true)
	return data, ok
}

// Has reports whether the store holds an object under a content hash,
// from memory alone: no object I/O, nothing verified or counted.
func (s *Store) Has(sha string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.sizes[sha]
	return ok
}

// read verifies one object — and with keep returns its bytes — without
// holding the store mutex: objects are immutable and replaced only by
// rename, so a reader needs no exclusion, and a multi-megabyte
// read-and-hash must not stall every Put and every other reader. Only a
// failure takes the lock, and repeats the check under it before
// rejecting: the object may have been quarantined or collected (then it
// is a plain miss, counted once by whoever did it) or republished since
// the unlocked attempt.
func (s *Store) read(sha string, buf []byte, keep bool) ([]byte, int64, bool) {
	if data, size, ok := s.readObject(sha, buf, keep); ok {
		return data, size, true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, live := s.sizes[sha]; !live {
		return nil, 0, false
	}
	data, size, ok := s.readObject(sha, buf, keep)
	if !ok {
		s.rejectLocked(sha)
	}
	return data, size, ok
}

// readChunk is how much of an object one read(2) copies before the hash
// takes it, and all a Verify holds. For a kept read the chunking neither
// helps nor costs: a 3.6 MB object read and hashed at the same rate in
// 64 KiB chunks as in one piece.
const readChunk = 64 << 10

// readObject is the one verified read: it reports whether an object's
// bytes hash to its name, and its size. With keep the bytes land in buf —
// grown only when it is shorter than the object — and are returned;
// without, they pass through one chunk of buf and none are kept. Each
// chunk is hashed as it lands, so the hash covers exactly the bytes read,
// and a failed read returns none of them.
func (s *Store) readObject(sha string, buf []byte, keep bool) (data []byte, size int64, ok bool) {
	f, err := os.Open(s.objectPath(sha))
	if err != nil {
		return nil, 0, false
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, 0, false
	}
	size = info.Size()
	n := int(size)
	if !keep {
		n = min(n, readChunk)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	h := sha256.New()
	for off := 0; off < int(size); {
		k := min(readChunk, int(size)-off)
		p := buf[:k]
		if keep {
			p = buf[off : off+k]
		}
		if _, err := io.ReadFull(f, p); err != nil {
			return nil, 0, false
		}
		h.Write(p)
		off += k
	}
	if hex.EncodeToString(h.Sum(nil)) != sha {
		return nil, 0, false
	}
	s.touch(sha)
	if !keep {
		return nil, size, true
	}
	return buf, size, true
}

// Put publishes a key's artifact from a slice: PutStream over data.
func (s *Store) Put(id string, data []byte) (sha string, err error) {
	sha, _, err = s.PutStream(id, func(w io.Writer) error { _, err := w.Write(data); return err })
	return sha, err
}

// PutStream publishes a key's artifact as write streams it: the bytes go
// to a uniquely named temp file in objects/ through the SHA-256, are
// fsynced and renamed to objects/<sha>, and only then is the index entry
// written, so the artifact is never held in memory whole. Re-publishing
// identical bytes is an idempotent ack (racing writers of a
// deterministic key converge); different bytes under a live key is a
// conflict error and counts as a verification failure — the caller
// surfaced a determinism violation, and the original artifact stands. An
// error from write publishes nothing and leaves no temp file. The object
// is the artifact's only copy on disk — no file outside the store names
// its inode — so evicting it frees its bytes.
func (s *Store) PutStream(id string, write func(io.Writer) error) (sha string, size int64, err error) {
	f, err := os.CreateTemp(s.objectsDir(), "put-*.tmp")
	if err != nil {
		return "", 0, err
	}
	tmp := f.Name()
	dw := &digestWriter{w: f, h: sha256.New()}
	// CreateTemp makes the file 0600; an object keeps the mode os.Create
	// gives under the usual umask, like every other file of the store.
	err = f.Chmod(0o644)
	if err == nil {
		err = write(dw)
	}
	if err := syncClose(f, err); err != nil {
		return "", 0, err
	}
	sha, size = hex.EncodeToString(dw.h.Sum(nil)), dw.n
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.index[id]; ok {
		os.Remove(tmp)
		if prev == sha {
			return sha, size, nil
		}
		mVerifyFailures.Inc()
		return "", 0, fmt.Errorf("store: key %s already holds content %s; refusing conflicting publish %s (determinism violation?)", id, prev, sha)
	}
	if _, ok := s.sizes[sha]; ok {
		os.Remove(tmp)
	} else {
		if err := os.Rename(tmp, s.objectPath(sha)); err != nil {
			os.Remove(tmp)
			return "", 0, err
		}
		s.sizes[sha] = size
		s.bytes += size
	}
	s.touch(sha)
	if err := AtomicWrite(s.indexPath(id), func(w io.Writer) error { _, err := io.WriteString(w, sha+"\n"); return err }); err != nil {
		return "", 0, err
	}
	s.index[id] = sha
	mPublishes.Inc()
	return sha, size, nil
}

// digestWriter passes writes through to w, hashing and counting them.
type digestWriter struct {
	w io.Writer
	h hash.Hash
	n int64
}

func (d *digestWriter) Write(p []byte) (int, error) {
	n, err := d.w.Write(p)
	d.h.Write(p[:n])
	d.n += int64(n)
	return n, err
}

// Reject quarantines a key's artifact: the object is moved aside and
// every index entry referencing it is dropped. Used when content that
// passed the hash check still fails structural decoding — the key reads
// as a miss afterwards, so it can be recomputed and republished.
func (s *Store) Reject(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sha, ok := s.index[id]; ok {
		s.rejectLocked(sha)
	}
}

// List returns the index sorted by key ID.
func (s *Store) List() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, len(s.index))
	for id, sha := range s.index {
		out = append(out, Entry{ID: id, SHA256: sha, Size: s.sizes[sha]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats reports the index size and total object bytes.
func (s *Store) Stats() (artifacts int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index), s.bytes
}

// GC reclaims space: unreferenced objects (their index entries were
// quarantined or evicted) are always removed, and with budget > 0 the
// store then evicts the least recently written or read artifacts — index
// entry and, once unreferenced, object — until total object bytes fit the
// budget.
// Returns the number of objects removed and the bytes freed.
func (s *Store) GC(budget int64) (removed int, freed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	refs := map[string]int{}
	for _, sha := range s.index {
		refs[sha]++
	}
	for sha := range s.sizes {
		if refs[sha] == 0 {
			freed += s.dropObjectLocked(sha)
			removed++
		}
	}
	if budget <= 0 || s.bytes <= budget {
		return removed, freed
	}
	// Over budget: evict whole artifacts oldest-first (object mtime, set
	// by the write and by every verified read; key ID as the
	// deterministic tiebreaker).
	type victim struct {
		id  string
		sha string
		mt  time.Time
	}
	victims := make([]victim, 0, len(s.index))
	for id, sha := range s.index {
		info, err := os.Stat(s.objectPath(sha))
		if err != nil {
			continue
		}
		victims = append(victims, victim{id: id, sha: sha, mt: info.ModTime()})
	}
	sort.Slice(victims, func(i, j int) bool {
		if !victims[i].mt.Equal(victims[j].mt) {
			return victims[i].mt.Before(victims[j].mt)
		}
		return victims[i].id < victims[j].id
	})
	for _, v := range victims {
		if s.bytes <= budget {
			break
		}
		os.Remove(s.indexPath(v.id))
		delete(s.index, v.id)
		refs[v.sha]--
		if refs[v.sha] == 0 {
			freed += s.dropObjectLocked(v.sha)
			removed++
		}
		mEvictions.Inc()
	}
	return removed, freed
}

// WriteMetrics renders the store's instance-shaped gauges in Prometheus
// text format (the counters live on the process-global registry).
func (s *Store) WriteMetrics(w io.Writer) error {
	artifacts, bytes := s.Stats()
	_, err := fmt.Fprintf(w,
		"# HELP dsmc_store_artifacts Artifacts indexed in the result store.\n"+
			"# TYPE dsmc_store_artifacts gauge\n"+
			"dsmc_store_artifacts %d\n"+
			"# HELP dsmc_store_bytes Total object bytes held by the result store.\n"+
			"# TYPE dsmc_store_bytes gauge\n"+
			"dsmc_store_bytes %d\n", artifacts, bytes)
	return err
}

// --- internals ---

func (s *Store) objectsDir() string    { return filepath.Join(s.root, "objects") }
func (s *Store) indexDir() string      { return filepath.Join(s.root, "index") }
func (s *Store) quarantineDir() string { return filepath.Join(s.root, "quarantine") }

func (s *Store) objectPath(sha string) string { return filepath.Join(s.objectsDir(), sha) }
func (s *Store) indexPath(id string) string   { return filepath.Join(s.indexDir(), id) }

// touch marks an object used, as it is published or passes a verified
// read: GC evicts by modification time, so what is read stays longer than
// what is not. The time is the process clock's, never the coarser one the
// kernel stamps a write with, so a publish and a read order as they ran.
func (s *Store) touch(sha string) {
	now := time.Now()
	_ = os.Chtimes(s.objectPath(sha), now, now) // a failed touch only lets GC evict it sooner
}

// rejectLocked quarantines an object and drops every index entry
// referencing it, counting one verification failure.
func (s *Store) rejectLocked(sha string) {
	mVerifyFailures.Inc()
	s.quarantine(s.objectPath(sha))
	if size, ok := s.sizes[sha]; ok {
		s.bytes -= size
		delete(s.sizes, sha)
	}
	var drop []string
	for id, ref := range s.index {
		if ref == sha {
			drop = append(drop, id)
		}
	}
	for _, id := range drop {
		os.Remove(s.indexPath(id))
		delete(s.index, id)
	}
}

// dropObjectLocked removes an object file and its accounting.
func (s *Store) dropObjectLocked(sha string) (size int64) {
	os.Remove(s.objectPath(sha))
	size = s.sizes[sha]
	s.bytes -= size
	delete(s.sizes, sha)
	return size
}

// sweepOrphans moves every *.tmp under the root into quarantine. An
// orphan is a crashed atomic write whose rename never happened — it is
// garbage by construction, but quarantining instead of deleting keeps
// the evidence for postmortems and guarantees it is never served.
func (s *Store) sweepOrphans() error {
	return filepath.WalkDir(s.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == s.quarantineDir() {
				return fs.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".tmp") {
			s.quarantine(path)
		}
		return nil
	})
}

// quarantine moves a file into quarantine/, uniquifying the name if a
// previous incident already used it. Best-effort: on failure the file
// is removed outright, so a bad artifact never stays servable.
func (s *Store) quarantine(path string) {
	base := filepath.Base(path)
	dst := filepath.Join(s.quarantineDir(), base)
	for i := 1; ; i++ {
		if _, err := os.Lstat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(s.quarantineDir(), fmt.Sprintf("%s.%d", base, i))
	}
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
	}
}

func validSHA(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// AtomicWrite replaces path with what write writes, via temp file +
// fsync + rename, so a crash can never leave a half-written file in
// place: readers see the old bytes or the new bytes. Every durable file
// write of the tree goes through it (index entries here, job
// checkpoints, dsmcd's spec files) or through PutStream (objects). write
// streams the content to the temp file and returns the first error it
// met; on any error the temp file is removed and path is left as it was. A crash can leave a
// path.tmp orphan; inside a store root the next Open sweeps it to
// quarantine.
func AtomicWrite(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	if err := WriteSynced(tmp, write); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// WriteSynced is AtomicWrite's first half, for a caller that decides
// separately whether to rename the file into place: it creates path,
// streams write into it, fsyncs and closes it, and removes it on any
// error.
func WriteSynced(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return syncClose(f, write(f))
}

// syncClose finishes writing the new file f, given the error of the
// write: it fsyncs and closes f, and removes it on any error.
func syncClose(f *os.File, err error) error {
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}
