package client_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"pvfs/internal/client"
	"pvfs/internal/cluster"
	"pvfs/internal/ioseg"
	"pvfs/internal/patterns"
	"pvfs/internal/striping"
)

// Cross-method equivalence on unstructured input: every noncontiguous
// method must produce byte-identical file and memory images on the
// seeded random pattern, which has no regularity for any method to
// exploit. This is the library's core correctness contract (§3: the
// methods differ only in cost).

// fullImage reads the whole file contiguously.
func fullImage(t *testing.T, fs *client.FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

func TestCrossMethodEquivalenceRandom(t *testing.T) {
	for _, seed := range []int64{1, 7, 4242} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c, err := cluster.Start(cluster.Options{NumIOD: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			fs, err := c.Connect()
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()

			pat, err := patterns.NewRandom(3, seed, patterns.RandomOptions{
				RegionsPerRank: 80, MinSize: 1, MaxSize: 700, MaxGap: 500,
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg := striping.Config{PCount: 4, StripeSize: 512}

			// Reference image computed in memory.
			ref := make([]byte, pat.FileBytes())
			arenas := make([][]byte, pat.Ranks())
			for r := 0; r < pat.Ranks(); r++ {
				arenas[r] = make([]byte, pat.TotalBytes(r))
				for i := range arenas[r] {
					arenas[r][i] = byte(int(seed) + r*31 + i)
				}
				var pos int64
				for i := 0; i < pat.FileRegions(r); i++ {
					seg := pat.FileRegion(r, i)
					copy(ref[seg.Offset:seg.End()], arenas[r][pos:pos+seg.Length])
					pos += seg.Length
				}
			}

			// Write the same data under each method into its own file.
			// Ranks run sequentially so data sieving's read-modify-write
			// is safe (the paper serializes sieving writes, §4.2.1).
			methods := []client.Method{client.MethodMultiple, client.MethodSieve, client.MethodList}
			for _, m := range methods {
				name := "equiv-" + m.String()
				f, err := fs.Create(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < pat.Ranks(); r++ {
					mem := patterns.MemList(pat, r)
					file := patterns.FileList(pat, r)
					if err := f.WriteNoncontig(m, arenas[r], mem, file, client.Options{}); err != nil {
						t.Fatalf("%v write rank %d: %v", m, r, err)
					}
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
				img := fullImage(t, fs, name)
				if len(img) < len(ref) {
					t.Fatalf("%v: image %d bytes, want ≥ %d", m, len(img), len(ref))
				}
				if !bytes.Equal(img[:len(ref)], ref) {
					t.Fatalf("%v: file image differs from reference", m)
				}
			}

			// Read back under every method from the list-written file
			// and compare the arenas.
			for _, m := range methods {
				f, err := fs.Open("equiv-list")
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < pat.Ranks(); r++ {
					mem := patterns.MemList(pat, r)
					file := patterns.FileList(pat, r)
					got := make([]byte, pat.TotalBytes(r))
					if err := f.ReadNoncontig(m, got, mem, file, client.Options{}); err != nil {
						t.Fatalf("%v read rank %d: %v", m, r, err)
					}
					if !bytes.Equal(got, arenas[r]) {
						t.Fatalf("%v: rank %d arena differs after read-back", m, r)
					}
				}
				f.Close()
			}
		})
	}
}

// TestStridedEquivalenceOnVector checks the descriptor extension
// against list I/O on a uniform vector (its applicable domain).
func TestStridedEquivalenceOnVector(t *testing.T) {
	c, err := cluster.Start(cluster.Options{NumIOD: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs, err := c.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	const (
		count    = int64(200)
		blockLen = int64(48)
		stride   = int64(160)
	)
	arena := make([]byte, count*blockLen)
	for i := range arena {
		arena[i] = byte(i * 3)
	}
	mem := ioseg.List{{Offset: 0, Length: int64(len(arena))}}
	flist := make(ioseg.List, count)
	for i := int64(0); i < count; i++ {
		flist[i] = ioseg.Segment{Offset: i * stride, Length: blockLen}
	}

	fList, err := fs.Create("vec-list", striping.Config{PCount: 4, StripeSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := fList.WriteList(arena, mem, flist, client.ListOptions{}); err != nil {
		t.Fatal(err)
	}
	fList.Close()

	fStr, err := fs.Create("vec-strided", striping.Config{PCount: 4, StripeSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := fStr.WriteStrided(arena, mem, 0, stride, blockLen, count); err != nil {
		t.Fatal(err)
	}
	fStr.Close()

	a := fullImage(t, fs, "vec-list")
	b := fullImage(t, fs, "vec-strided")
	if !bytes.Equal(a, b) {
		t.Fatal("list and strided writes left different images")
	}

	// Read back via strided and compare to the arena.
	fr, err := fs.Open("vec-list")
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	got := make([]byte, len(arena))
	if err := fr.ReadStrided(got, mem, 0, stride, blockLen, count); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, arena) {
		t.Fatal("strided read-back differs from source arena")
	}
}

// tinyPieceMem cuts total bytes of memory into pieces of 1-16 B with
// gaps of 0-3 B, with a zero-length piece in about one slot in eight:
// the fragmented layout where the memory cursor does the most work per
// byte. It returns the list and the arena size it spans.
func tinyPieceMem(r *rand.Rand, total int64) (ioseg.List, int64) {
	var mem ioseg.List
	var off int64
	for left := total; left > 0; {
		if r.Intn(8) == 0 {
			mem = append(mem, ioseg.Segment{Offset: off, Length: 0})
		}
		n := min(int64(1+r.Intn(16)), left)
		mem = append(mem, ioseg.Segment{Offset: off, Length: n})
		off += n + int64(r.Intn(4))
		left -= n
	}
	return mem, off
}

// TestListWindowEquivalence pins the pipelining contract: ReadList and
// WriteList must produce byte-identical results whether requests are
// serialized (Window=1, the original PVFS discipline) or pipelined
// (Window=8), across granularities, an unstructured random pattern and
// the same file layout fed from memory fragmented into 1-16 B pieces.
func TestListWindowEquivalence(t *testing.T) {
	c, err := cluster.Start(cluster.Options{NumIOD: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs, err := c.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	pat, err := patterns.NewRandom(2, 99, patterns.RandomOptions{
		RegionsPerRank: 300, MinSize: 1, MaxSize: 400, MaxGap: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := striping.Config{PCount: 4, StripeSize: 512}

	// One input per rank, plus rank 0's file layout from tiny pieces.
	type input struct {
		name      string
		mem, file ioseg.List
		arenaLen  int64
	}
	var inputs []input
	for r := 0; r < pat.Ranks(); r++ {
		inputs = append(inputs, input{fmt.Sprintf("r%d", r), patterns.MemList(pat, r), patterns.FileList(pat, r), pat.TotalBytes(r)})
	}
	tiny, tinyLen := tinyPieceMem(rand.New(rand.NewSource(3)), pat.TotalBytes(0))
	inputs = append(inputs, input{"tiny", tiny, patterns.FileList(pat, 0), tinyLen})

	for _, g := range []client.Granularity{client.GranularityFileRegions, client.GranularityIntersect} {
		for _, in := range inputs {
			mem, file := in.mem, in.file
			// Data is a function of stream position, so inputs sharing a
			// file layout write the same image. Bytes outside the memory
			// regions stay zero: a read-back into a zeroed arena must
			// reproduce the arena exactly.
			arena := make([]byte, in.arenaLen)
			var pos int
			for _, s := range mem {
				for i := s.Offset; i < s.End(); i++ {
					arena[i] = byte(pos*13 + pos>>8)
					pos++
				}
			}
			names := [2]string{}
			for wi, window := range []int{1, 8} {
				name := fmt.Sprintf("win-%v-%s-w%d", g, in.name, window)
				names[wi] = name
				f, err := fs.Create(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				opts := client.ListOptions{Granularity: g, Window: window}
				if err := f.WriteList(arena, mem, file, opts); err != nil {
					t.Fatalf("write window=%d: %v", window, err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			}
			a := fullImage(t, fs, names[0])
			b := fullImage(t, fs, names[1])
			if !bytes.Equal(a, b) {
				t.Fatalf("granularity %v input %s: window=1 and window=8 images differ", g, in.name)
			}
			if in.name == "tiny" && !bytes.Equal(a, fullImage(t, fs, fmt.Sprintf("win-%v-r0-w1", g))) {
				t.Fatalf("granularity %v: tiny-piece memory wrote a different image than rank 0's", g)
			}

			// Read the serialized-written file back under both windows.
			f, err := fs.Open(names[0])
			if err != nil {
				t.Fatal(err)
			}
			for _, window := range []int{1, 8} {
				got := make([]byte, in.arenaLen)
				opts := client.ListOptions{Granularity: g, Window: window}
				if err := f.ReadList(got, mem, file, opts); err != nil {
					t.Fatalf("read window=%d: %v", window, err)
				}
				if !bytes.Equal(got, arena) {
					t.Fatalf("granularity %v input %s window=%d: read-back differs", g, in.name, window)
				}
			}
			f.Close()
		}
	}
}
