package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dsmc/internal/frame"
)

func testOutput() *Output {
	return &Output{
		Fields: map[string][]float64{
			"density":     {1.0, 2.5, 0.125},
			"temperature": {0.5, 0.75, 1.5},
		},
		ShockAngleDeg: math.NaN(), // the reason JSON can't be the codec
		Collisions:    42,
		NFlow:         1234,
	}
}

func hashOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func TestKeyID(t *testing.T) {
	k := Key{Kind: "out", Fp: 0xdeadbeef, Seed: 7, Point: 2, Replica: 11}
	want := "out-00000000deadbeef-0000000000000007-p002-r011"
	if got := k.ID(); got != want {
		t.Fatalf("Key.ID() = %q, want %q", got, want)
	}
}

func TestOutputCodecRoundTrip(t *testing.T) {
	o := testOutput()
	data := EncodeOutput(o)
	back, err := DecodeOutput(data)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(back.ShockAngleDeg) || back.Collisions != 42 || back.NFlow != 1234 {
		t.Fatalf("scalars did not round-trip: %+v", back)
	}
	for name, col := range o.Fields {
		got := back.Fields[name]
		if len(got) != len(col) {
			t.Fatalf("field %q: %d cells, want %d", name, len(got), len(col))
		}
		for c := range col {
			if math.Float64bits(got[c]) != math.Float64bits(col[c]) {
				t.Fatalf("field %q cell %d: %v != %v", name, c, got[c], col[c])
			}
		}
	}
	// Canonical encoding: re-encoding the decoded value is byte-identical.
	if string(EncodeOutput(back)) != string(data) {
		t.Fatal("re-encoding is not canonical")
	}
	// Any flipped byte must fail the checksum, not decode quietly.
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x01
	if _, err := DecodeOutput(bad); !errors.Is(err, frame.ErrCorrupt) {
		t.Fatalf("flipped byte: %v, want frame.ErrCorrupt", err)
	}
	// Another format version is a version error, whatever its trailer.
	other := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(other[8:], uint64(outputVersion)+1)
	if _, err := DecodeOutput(other); !errors.Is(err, frame.ErrVersion) {
		t.Fatalf("version %d: %v, want frame.ErrVersion", outputVersion+1, err)
	}
}

// TestHugeCountsRejected: sealed outputs whose counts declare far more
// than their own bytes — ~2^64 fields, or one field of 2^61 cells — are
// errors before anything is sized from the count. Decoding allocates less
// than twice the input plus 64 KiB, not the exabytes the counts ask for.
func TestHugeCountsRejected(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fields func(w *frame.Writer)
	}{
		{"fields", func(w *frame.Writer) { w.U64(math.MaxUint64) }},
		{"cells", func(w *frame.Writer) { w.U64(1); w.Text("density"); w.U64(1 << 61) }},
	} {
		var buf bytes.Buffer
		w := frame.NewWriter(&buf, outputMagic, outputVersion)
		tc.fields(w)
		w.F64(math.NaN())
		w.I64(0)
		w.I64(0)
		w.Finish()
		data := buf.Bytes()

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeOutput(data)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, frame.ErrMalformed) {
			t.Errorf("%s: %d-byte frame: %v, want frame.ErrMalformed", tc.name, len(data), err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 2*uint64(len(data))+1<<16 {
			t.Errorf("%s: rejecting %d bytes allocated %d", tc.name, len(data), d)
		}
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := Key{Kind: "out", Fp: 1, Seed: 2, Point: 0, Replica: 0}.ID()
	data := EncodeOutput(testOutput())
	sha, err := s.Put(id, data)
	if err != nil {
		t.Fatal(err)
	}
	got, gotSHA, ok := s.Get(id)
	if !ok || gotSHA != sha || string(got) != string(data) {
		t.Fatalf("Get: ok=%v sha=%q", ok, gotSHA)
	}
	bySHA, ok := s.GetBySHA(sha, nil)
	if !ok || string(bySHA) != string(data) {
		t.Fatal("GetBySHA did not return the object")
	}
	if n, b := s.Stats(); n != 1 || b != int64(len(data)) {
		t.Fatalf("Stats = (%d, %d), want (1, %d)", n, b, len(data))
	}
	// A fresh Open over the same root sees the same index.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s2.Get(id); !ok {
		t.Fatal("reopened store lost the entry")
	}
}

func TestPutIdempotentAndConflict(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := Key{Kind: "out", Fp: 1, Seed: 2}.ID()
	data := EncodeOutput(testOutput())
	sha1, err := s.Put(id, data)
	if err != nil {
		t.Fatal(err)
	}
	// Racing writers of a deterministic key produce identical bytes: ack.
	sha2, err := s.Put(id, append([]byte(nil), data...))
	if err != nil || sha2 != sha1 {
		t.Fatalf("idempotent Put: sha=%q err=%v", sha2, err)
	}
	// Different bytes under a live key is a detected determinism
	// violation, not a silent overwrite.
	other := testOutput()
	other.Collisions++
	if _, err := s.Put(id, EncodeOutput(other)); err == nil {
		t.Fatal("conflicting Put succeeded")
	}
	if got, _, ok := s.Get(id); !ok || string(got) != string(data) {
		t.Fatal("original artifact did not survive the conflicting publish")
	}
}

// storeFiles lists every file under a store's objects/ and index/.
func storeFiles(t *testing.T, dir string) (objects, index []string) {
	t.Helper()
	for _, sub := range []string{"objects", "index"} {
		es, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range es {
			if sub == "objects" {
				objects = append(objects, e.Name())
			} else {
				index = append(index, e.Name())
			}
		}
	}
	return objects, index
}

// TestPutStreamConcurrent: writers racing to stream one key's identical
// bytes all get its hash and size, and leave one object, one index entry
// and no temp file.
func TestPutStreamConcurrent(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := Key{Kind: "res", Fp: 3, Seed: 4}.ID()
	chunk := bytes.Repeat([]byte("0123456789abcdef"), 4<<10)
	write := func(w io.Writer) error {
		for range 4 {
			if _, err := w.Write(chunk); err != nil {
				return err
			}
		}
		return nil
	}
	want := hashOf(bytes.Repeat(chunk, 4))
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sha, size, err := s.PutStream(id, write)
			if err != nil || sha != want || size != 4*int64(len(chunk)) {
				t.Errorf("PutStream: sha %s, size %d, err %v; want %s, %d, nil", sha, size, err, want, 4*len(chunk))
			}
		}()
	}
	wg.Wait()
	objects, index := storeFiles(t, dir)
	if len(objects) != 1 || objects[0] != want || len(index) != 1 || index[0] != id {
		t.Fatalf("after 8 racing publishes: objects %v, index %v; want [%s], [%s]", objects, index, want, id)
	}
	if data, sha, ok := s.Get(id); !ok || sha != want || len(data) != 4*len(chunk) {
		t.Fatalf("Get after racing publishes: %d bytes, sha %s, ok %v", len(data), sha, ok)
	}
}

// TestPutStreamFailedWrite: a write that fails, halfway or at once, and a
// conflicting publish leave no object, no index entry and no temp file,
// and the write's error comes back.
func TestPutStreamFailedWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	errHalfway := errors.New("encoder failed")
	for _, half := range [][]byte{[]byte("half of an artifact"), nil} {
		_, _, err := s.PutStream("res-broken", func(w io.Writer) error {
			if _, err := w.Write(half); err != nil {
				return err
			}
			return errHalfway
		})
		if !errors.Is(err, errHalfway) {
			t.Fatalf("PutStream of a failing write: %v, want %v", err, errHalfway)
		}
	}
	if objects, index := storeFiles(t, dir); len(objects) != 0 || len(index) != 0 {
		t.Fatalf("failed writes left objects %v, index %v", objects, index)
	}
	if _, ok := s.Lookup("res-broken"); ok {
		t.Fatal("a failed write is indexed")
	}
	sha, err := s.Put("res-broken", []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("res-broken", []byte("v2")); err == nil {
		t.Fatal("conflicting Put succeeded")
	}
	if objects, index := storeFiles(t, dir); len(objects) != 1 || objects[0] != sha || len(index) != 1 {
		t.Fatalf("after a conflicting publish: objects %v, index %v; want [%s] and one entry", objects, index, sha)
	}
	if n, size := s.Stats(); n != 1 || size != 2 {
		t.Fatalf("Stats %d artifacts, %d bytes; want 1, 2", n, size)
	}
}

func TestOpenQuarantinesTmpAndDangling(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := Key{Kind: "out", Fp: 9, Seed: 9}.ID()
	if _, err := s.Put(id, EncodeOutput(testOutput())); err != nil {
		t.Fatal(err)
	}
	// Plant a torn atomic write and a dangling index entry, as a crash
	// mid-publish would leave them.
	torn := filepath.Join(dir, "objects", "deadbeef.tmp")
	if err := os.WriteFile(torn, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	dangling := Key{Kind: "out", Fp: 10, Seed: 10}.ID()
	if err := os.WriteFile(filepath.Join(dir, "index", dangling), []byte(strings.Repeat("ab", 32)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatal("torn .tmp still in objects/")
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", "deadbeef.tmp")); err != nil {
		t.Fatal("torn .tmp was not quarantined")
	}
	if _, _, ok := s2.Get(dangling); ok {
		t.Fatal("dangling index entry served")
	}
	if _, _, ok := s2.Get(id); !ok {
		t.Fatal("healthy entry lost during recovery")
	}
}

func TestGetQuarantinesCorruptObject(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := Key{Kind: "out", Fp: 3, Seed: 4}.ID()
	data := EncodeOutput(testOutput())
	sha, err := s.Put(id, data)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte on disk (same size, so only the hash can tell).
	path := filepath.Join(dir, "objects", sha)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	failures := mVerifyFailures.Value()
	if _, _, ok := s.Get(id); ok {
		t.Fatal("corrupt artifact served as a hit")
	}
	if mVerifyFailures.Value() != failures+1 {
		t.Fatal("verification failure not counted")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt object still in objects/")
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", sha)); err != nil {
		t.Fatal("corrupt object was not quarantined")
	}
	// The key is recomputable: a fresh publish of the true bytes works.
	if _, err := s.Put(id, data); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get(id); !ok {
		t.Fatal("republished artifact not served")
	}
}

// TestGetIntoBuffer: a read into a caller's buffer returns exactly the
// object's bytes whatever the buffer held — longer, shorter, the same
// length with other bytes — grows a short buffer, and reuses one long
// enough without allocating anything the size of the object.
func TestGetIntoBuffer(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := Key{Kind: "res", Fp: 5, Seed: 6}.ID()
	// Over one read chunk and not a multiple of it, so the last chunk is short.
	want := bytes.Repeat([]byte("verified read "), (3*readChunk)/14+5)
	sha, err := s.Put(id, want)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		buf  []byte
	}{
		{"nil", nil},
		{"short", bytes.Repeat([]byte{0xff}, 100)},
		{"same length, other bytes", bytes.Repeat([]byte{'x'}, len(want))},
		{"longer", bytes.Repeat([]byte{0xee}, 2*len(want))},
		{"empty with room", make([]byte, 0, len(want)+7)},
	} {
		data, gotSHA, ok := s.GetInto(id, tc.buf)
		if !ok || gotSHA != sha || !bytes.Equal(data, want) {
			t.Errorf("%s buffer: ok %v, sha %s, %d bytes equal %v; want the object %s", tc.name, ok, gotSHA, len(data), bytes.Equal(data, want), sha)
		}
		grew := cap(tc.buf) < len(want)
		if shared := cap(data) > 0 && cap(tc.buf) > 0 && &data[:1][0] == &tc.buf[:1][0]; shared == grew {
			t.Errorf("%s buffer (cap %d): read into it %v, want %v", tc.name, cap(tc.buf), shared, !grew)
		}
		bySHA, ok := s.GetBySHA(sha, tc.buf)
		if !ok || !bytes.Equal(bySHA, want) {
			t.Errorf("%s buffer: GetBySHA ok %v, %d bytes equal %v", tc.name, ok, len(bySHA), bytes.Equal(bySHA, want))
		}
	}

	buf := make([]byte, len(want))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 10 {
		if _, _, ok := s.GetInto(id, buf); !ok {
			t.Fatal("reused-buffer read missed")
		}
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > 64<<10 {
		t.Errorf("10 reads of a %d-byte object into a buffer that holds it allocated %d bytes, want <= 64 KiB", len(want), d)
	}
}

// TestGetIntoCorruptNeverReturnsBuffer: an object damaged in place at the
// same size, read into a buffer that already holds its true bytes, is a
// miss and is quarantined, and the read returns nothing — neither the
// damaged bytes nor the buffer's earlier, correct-looking ones — whether
// it is read by key or by hash.
func TestGetIntoCorruptNeverReturnsBuffer(t *testing.T) {
	for _, by := range []string{"key", "hash"} {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		id := Key{Kind: "res", Fp: 7, Seed: 8}.ID()
		want := bytes.Repeat([]byte("0123456789abcdef"), 2*readChunk/16)
		sha, err := s.Put(id, want)
		if err != nil {
			t.Fatal(err)
		}
		buf, _, ok := s.GetInto(id, nil)
		if !ok {
			t.Fatal("intact object missed")
		}
		path := filepath.Join(dir, "objects", sha)
		raw := bytes.Clone(want)
		raw[len(raw)-1] ^= 0x01 // in the last chunk: every chunk before it reads clean
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		failures := mVerifyFailures.Value()
		var data []byte
		if by == "key" {
			data, _, ok = s.GetInto(id, buf)
		} else {
			data, ok = s.GetBySHA(sha, buf)
		}
		if ok || data != nil {
			t.Errorf("by %s, damaged object: ok %v, %d bytes; want a miss returning nothing", by, ok, len(data))
		}
		if mVerifyFailures.Value() != failures+1 {
			t.Errorf("by %s: verification failures +%d, want +1", by, mVerifyFailures.Value()-failures)
		}
		if _, err := os.Stat(filepath.Join(dir, "quarantine", sha)); err != nil {
			t.Errorf("by %s: damaged object not quarantined: %v", by, err)
		}
		if _, held := s.Lookup(id); held {
			t.Errorf("by %s: the damaged object's key is still indexed", by)
		}
	}
}

// TestGCKeepsWhatWasRead: a verified read marks an object used, so under
// a budget GC evicts the artifact least recently written or read, not the
// oldest written.
func TestGCKeepsWhatWasRead(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		o := testOutput()
		o.NFlow = i
		id := Key{Kind: "out", Fp: 1, Seed: 1, Replica: i}.ID()
		sha, err := s.Put(id, EncodeOutput(o))
		if err != nil {
			t.Fatal(err)
		}
		mt := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, "objects", sha), mt, mt); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if _, _, ok := s.Get(ids[0]); !ok {
		t.Fatal("oldest artifact not served")
	}
	_, total := s.Stats()
	if removed, _ := s.GC(total * 2 / 3); removed != 1 {
		t.Fatalf("budget GC removed %d objects, want 1", removed)
	}
	for i, want := range []bool{true, false, true} {
		if _, ok := s.Lookup(ids[i]); ok != want {
			t.Errorf("artifact %d held after GC: %v, want %v (artifact 0 was read last)", i, ok, want)
		}
	}
}

func TestGC(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var shas []string
	var ids []string
	for i := 0; i < 3; i++ {
		o := testOutput()
		o.NFlow = i // distinct content per artifact
		id := Key{Kind: "out", Fp: 1, Seed: 1, Replica: i}.ID()
		sha, err := s.Put(id, EncodeOutput(o))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		shas = append(shas, sha)
		// Stagger mtimes so eviction order is deterministic.
		mt := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, "objects", sha), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	_ = shas
	// An object nothing references (its index entries were quarantined
	// in a prior incident) is reclaimed by any GC pass.
	stray := filepath.Join(dir, "objects", strings.Repeat("00", 32))
	if err := os.WriteFile(stray, []byte("stray"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if removed, freed := s2.GC(0); removed != 1 || freed != 5 {
		t.Fatalf("GC(0) = (%d, %d), want (1, 5)", removed, freed)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("unreferenced object survived GC")
	}
	// Budget that fits two of the three equally-sized artifacts: the
	// oldest-modified one is evicted, the newer two survive.
	_, total := s2.Stats()
	evictions := mEvictions.Value()
	if removed, freed := s2.GC(total * 2 / 3); removed != 1 || freed != total/3 {
		t.Fatalf("budget GC = (%d, %d), want (1, %d)", removed, freed, total/3)
	}
	if mEvictions.Value() != evictions+1 {
		t.Fatal("eviction not counted")
	}
	if _, _, ok := s2.Get(ids[0]); ok {
		t.Fatal("oldest artifact survived the budget GC")
	}
	if _, _, ok := s2.Get(ids[1]); !ok {
		t.Fatal("second artifact did not survive the budget GC")
	}
	if _, _, ok := s2.Get(ids[2]); !ok {
		t.Fatal("newest artifact did not survive the budget GC")
	}
}

// TestConcurrentReadsVerified: reads hash their object outside the store
// mutex, so they overlap with each other and with Put, Reject and GC on
// the same keys. Whatever interleaving happens, a read that returns bytes
// returns bytes that hash to the sha it names (run under -race).
func TestConcurrentReadsVerified(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const keys, rounds = 4, 200
	ids := make([]string, keys)
	bodies := make([][]byte, keys)
	for k := range ids {
		ids[k] = Key{Kind: "out", Fp: 1, Seed: 2, Point: k}.ID()
		bodies[k] = []byte(strings.Repeat(string(rune('a'+k)), 64<<10))
	}
	var wg sync.WaitGroup
	spawn := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				f(i)
			}
		}()
	}
	for w := 0; w < 2; w++ {
		spawn(func(i int) {
			if _, err := s.Put(ids[i%keys], bodies[i%keys]); err != nil {
				t.Errorf("Put: %v", err) // same key, same bytes: never a conflict
			}
		})
		// Each reader reads into one buffer of its own, reused across
		// rounds, as dsmcd's handlers do: a failed read returns none of
		// what an earlier round left in it.
		var buf []byte
		spawn(func(i int) {
			data, sha, ok := s.GetInto(ids[i%keys], buf)
			if ok && (hashOf(data) != sha || string(data) != string(bodies[i%keys])) {
				t.Errorf("GetInto(%s) returned %d bytes that are not the object %s", ids[i%keys], len(data), sha)
			}
			if !ok && data != nil {
				t.Errorf("GetInto(%s) missed and returned %d bytes", ids[i%keys], len(data))
			}
			if ok {
				buf = data
			}
			data, ok = s.GetBySHA(hashOf(bodies[i%keys]), buf)
			if ok && string(data) != string(bodies[i%keys]) {
				t.Errorf("GetBySHA returned %d bytes that do not hash to the name asked for", len(data))
			}
			if !ok && data != nil {
				t.Errorf("GetBySHA missed and returned %d bytes", len(data))
			}
			if ok {
				buf = data
			}
		})
	}
	spawn(func(i int) { s.Reject(ids[i%keys]) })
	spawn(func(i int) { s.GC(int64(len(bodies[0])) * 2) })
	wg.Wait()

	// The store is consistent afterwards: every key left in the index reads.
	for _, e := range s.List() {
		if _, sha, ok := s.Get(e.ID); !ok || sha != e.SHA256 {
			t.Errorf("after the storm, %s is indexed as %s but does not read", e.ID, e.SHA256)
		}
	}
}
