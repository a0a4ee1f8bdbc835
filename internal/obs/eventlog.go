package obs

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// EventLog is an append-only log of events held as compact binary
// records, for keeping long traces in memory: a branch-and-bound event
// (node.open, lp.solve, node.close) takes about 22 bytes instead of an
// Event's 336.
//
// A record is a uvarint bitmap of the event's non-zero fields (bit i is
// the i-th struct field) followed by each present field in struct
// order. Integers are zigzag varints. Floats are their raw IEEE 754
// bits, present when the bits are non-zero, so NaN, ±Inf and −0
// round-trip exactly; sanitizing them for JSON is left to the writer.
// Strings (kinds, statuses, details, span names) are a uvarint index
// into the log's string table. Booleans are their bitmap bit alone.
//
// Records are written into blocks that are never moved or rewritten,
// so a snapshot taken under the owner's lock stays valid while later
// appends run and can be decoded after the lock is released. EventLog
// itself is not safe for concurrent use: its owner serializes Append
// and Snapshot.
type EventLog struct {
	blocks [][]byte // every block but the last is full
	tail   int      // bytes written to the last block
	strs   []string // string table, append-only
	index  map[string]uint64
	n      int
	enc    recordEncoder
}

// Blocks double from minBlock to maxBlock bytes, so a short trace does
// not pin a full-size block while a long one allocates rarely.
const (
	minBlock = 1 << 10
	maxBlock = 32 << 10
)

// Append adds one event to the log. It allocates only when a block
// fills or a string is seen for the first time.
func (l *EventLog) Append(e *Event) {
	// The fields are staged after room for the bitmap, which is known
	// only once every field has been visited, and the bitmap is then
	// put right before them.
	w := &l.enc
	w.log, w.n, w.mask, w.bit = l, binary.MaxVarintLen64, 0, 0
	w.fields(e)
	var head [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(head[:], w.mask)
	start := binary.MaxVarintLen64 - k
	copy(w.buf[start:], head[:k])
	l.write(w.buf[start:w.n])
	l.n++
}

// Len reports the number of events appended.
func (l *EventLog) Len() int { return l.n }

// Snapshot returns a view of the events appended so far. The view reads
// only bytes and string-table entries that later appends never touch, so
// it may be decoded concurrently with them.
func (l *EventLog) Snapshot() EventLogSnapshot {
	return EventLogSnapshot{blocks: l.blocks, tail: l.tail, strs: l.strs, n: l.n}
}

// write copies p into the blocks, starting a new block when the last one
// is full; a record may straddle two blocks.
func (l *EventLog) write(p []byte) {
	for len(p) > 0 {
		k := len(l.blocks)
		if k == 0 || l.tail == len(l.blocks[k-1]) {
			size := maxBlock
			if k < 5 {
				size = minBlock << k
			}
			l.blocks = append(l.blocks, make([]byte, size))
			l.tail = 0
			k++
		}
		n := copy(l.blocks[k-1][l.tail:], p)
		l.tail += n
		p = p[n:]
	}
}

// str returns s's string-table index, adding s on first sight.
func (l *EventLog) str(s string) uint64 {
	i, ok := l.index[s]
	if !ok {
		if l.index == nil {
			l.index = make(map[string]uint64)
		}
		i = uint64(len(l.strs))
		l.strs = append(l.strs, s)
		l.index[s] = i
	}
	return i
}

// EventLogSnapshot is a point-in-time view of an EventLog: all its
// events up to the snapshot, or, for a view made by Since, those after
// an earlier snapshot.
type EventLogSnapshot struct {
	blocks [][]byte // every block of the log, from its first
	tail   int
	strs   []string
	n      int
	// from events precede the view; the first of its records starts
	// at byte off of blocks[block].
	from, block, off int
}

// Len reports the number of events in the snapshot.
func (s EventLogSnapshot) Len() int { return s.n - s.from }

// Since returns the view of the events in s that follow prev, an
// earlier snapshot or view of the same log: a reader that keeps its
// last snapshot decodes each event once. The zero prev gives all of s.
func (s EventLogSnapshot) Since(prev EventLogSnapshot) EventLogSnapshot {
	s.from = prev.n
	s.block, s.off = 0, 0
	if k := len(prev.blocks); k > 0 {
		s.block, s.off = k-1, prev.tail
	}
	return s
}

// Each decodes the snapshot's events in append order and calls fn on
// each. The records were written by Append alone, so one that fails to
// decode is a bug in the codec, and Each panics on it.
func (s EventLogSnapshot) Each(fn func(Event)) {
	dec := recordDecoder{r: blockReader{blocks: s.blocks[s.block:], head: s.off, tail: s.tail}, strs: s.strs}
	for i := s.from; i < s.n; i++ {
		var e Event
		dec.mask, dec.bit = dec.r.uvarint(), 0
		dec.fields(&e)
		fn(e)
	}
}

// recordEncoder stages one record and collects its bitmap. buf holds
// the largest record, every field and the bitmap a ten-byte varint; it
// lives in the log so that an append does not clear it.
type recordEncoder struct {
	log  *EventLog
	buf  [64 * binary.MaxVarintLen64]byte
	n    int
	mask uint64
	bit  uint
}

// fields visits every Event field in struct order. recordDecoder.fields
// must list the same fields in the same order; the round-trip test sets
// every field, so a field missing from either list fails it.
func (w *recordEncoder) fields(e *Event) {
	w.int(e.T)
	w.str(string(e.Kind))
	w.int(int64(e.Step))
	w.int(int64(e.Node))
	w.int(int64(e.Depth))
	w.int(int64(e.BranchVar))
	w.str(e.Status)
	w.str(e.Detail)
	w.float(e.Obj)
	w.float(e.Bound)
	w.float(e.Gap)
	w.float(e.Height)
	w.float(e.Temp)
	w.int(int64(e.Iters))
	w.int(int64(e.Phase1Iters))
	w.int(int64(e.Degenerate))
	w.int(int64(e.DualPivots))
	w.int(int64(e.Refactors))
	w.int(int64(e.Nodes))
	w.int(int64(e.Open))
	w.int(int64(e.Pruned))
	w.int(int64(e.Covers))
	w.int(int64(e.Binaries))
	w.int(int64(e.Modules))
	w.int(int64(e.Accepted))
	w.int(int64(e.Attempted))
	w.int(int64(e.Fixed))
	w.int(int64(e.Tightened))
	w.float(e.MReduction)
	w.int(int64(e.Worker))
	w.int(int64(e.Workers))
	w.int(int64(e.Steals))
	w.int(e.IdleUS)
	w.int(e.DurUS)
	w.bool(e.Warm)
	w.bool(e.Relaxed)
	w.bool(e.First)
	w.int(e.Span)
	w.int(e.Parent)
	w.str(e.Name)
}

// int, float, str and bool stay small enough to inline, so an absent
// field costs a compare; present integers and strings take a call to
// varint or index, which are kept out of line so that their callers
// fit the inlining budget.
func (w *recordEncoder) int(v int64) {
	if v != 0 {
		w.varint(v)
	}
	w.bit++
}

//go:noinline
func (w *recordEncoder) varint(v int64) {
	w.mask |= 1 << w.bit
	w.n += binary.PutVarint(w.buf[w.n:], v)
}

func (w *recordEncoder) float(v float64) {
	if b := math.Float64bits(v); b != 0 {
		w.mask |= 1 << w.bit
		binary.LittleEndian.PutUint64(w.buf[w.n:], b)
		w.n += 8
	}
	w.bit++
}

func (w *recordEncoder) str(v string) {
	if v != "" {
		w.index(v)
	}
	w.bit++
}

//go:noinline
func (w *recordEncoder) index(v string) {
	w.mask |= 1 << w.bit
	w.n += binary.PutUvarint(w.buf[w.n:], w.log.str(v))
}

func (w *recordEncoder) bool(v bool) {
	if v {
		w.mask |= 1 << w.bit
	}
	w.bit++
}

// recordDecoder reads records back, one bitmap at a time.
type recordDecoder struct {
	r    blockReader
	strs []string
	mask uint64
	bit  uint
}

// fields mirrors recordEncoder.fields.
func (d *recordDecoder) fields(e *Event) {
	e.T = d.int()
	e.Kind = Kind(d.str())
	e.Step = int(d.int())
	e.Node = int(d.int())
	e.Depth = int(d.int())
	e.BranchVar = int(d.int())
	e.Status = d.str()
	e.Detail = d.str()
	e.Obj = d.float()
	e.Bound = d.float()
	e.Gap = d.float()
	e.Height = d.float()
	e.Temp = d.float()
	e.Iters = int(d.int())
	e.Phase1Iters = int(d.int())
	e.Degenerate = int(d.int())
	e.DualPivots = int(d.int())
	e.Refactors = int(d.int())
	e.Nodes = int(d.int())
	e.Open = int(d.int())
	e.Pruned = int(d.int())
	e.Covers = int(d.int())
	e.Binaries = int(d.int())
	e.Modules = int(d.int())
	e.Accepted = int(d.int())
	e.Attempted = int(d.int())
	e.Fixed = int(d.int())
	e.Tightened = int(d.int())
	e.MReduction = d.float()
	e.Worker = int(d.int())
	e.Workers = int(d.int())
	e.Steals = int(d.int())
	e.IdleUS = d.int()
	e.DurUS = d.int()
	e.Warm = d.bool()
	e.Relaxed = d.bool()
	e.First = d.bool()
	e.Span = d.int()
	e.Parent = d.int()
	e.Name = d.str()
}

// bool reports the next field's bitmap bit; the other readers read the
// field's bytes only when it is set.
func (d *recordDecoder) bool() bool {
	set := d.mask>>d.bit&1 != 0
	d.bit++
	return set
}

func (d *recordDecoder) int() int64 {
	if !d.bool() {
		return 0
	}
	u := d.r.uvarint()
	return int64(u>>1) ^ -int64(u&1) // zigzag, as binary.PutVarint
}

func (d *recordDecoder) float() float64 {
	if !d.bool() {
		return 0
	}
	var b uint64
	if len(d.r.cur) >= 8 {
		b = binary.LittleEndian.Uint64(d.r.cur)
		d.r.cur = d.r.cur[8:]
	} else {
		for i := 0; i < 8; i++ {
			b |= uint64(d.r.byte()) << (8 * i)
		}
	}
	return math.Float64frombits(b)
}

func (d *recordDecoder) str() string {
	if !d.bool() {
		return ""
	}
	return d.strs[d.r.uvarint()]
}

// blockReader reads a snapshot's bytes across its blocks.
type blockReader struct {
	blocks [][]byte
	head   int // bytes of the first block that precede the snapshot
	tail   int // bytes of the last block that belong to the snapshot
	cur    []byte
}

// ReadByte implements io.ByteReader.
func (r *blockReader) ReadByte() (byte, error) {
	for len(r.cur) == 0 {
		if len(r.blocks) == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		r.cur = r.blocks[0]
		if len(r.blocks) == 1 {
			r.cur = r.cur[:r.tail]
		}
		r.cur, r.head = r.cur[r.head:], 0
		r.blocks = r.blocks[1:]
	}
	c := r.cur[0]
	r.cur = r.cur[1:]
	return c, nil
}

// byte and uvarint read the snapshot; running out of bytes or an
// overlong varint means the log is corrupt.
func (r *blockReader) byte() byte {
	c, err := r.ReadByte()
	if err != nil {
		panic(fmt.Sprintf("obs: corrupt event log: %v", err))
	}
	return c
}

func (r *blockReader) uvarint() uint64 {
	if v, k := binary.Uvarint(r.cur); k > 0 {
		r.cur = r.cur[k:]
		return v
	}
	// The varint straddles a block boundary (or the log is corrupt).
	v, err := binary.ReadUvarint(r)
	if err != nil {
		panic(fmt.Sprintf("obs: corrupt event log: %v", err))
	}
	return v
}
