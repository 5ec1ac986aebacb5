package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"github.com/zeroloss/zlb/internal/types"
)

// Errors a Reader reports. Every decode error of a layout read through a
// Reader wraps one of them, or the error a type's reader passes to Fail.
var (
	ErrTruncated    = errors.New("wire: truncated payload")
	ErrNonCanonical = errors.New("wire: non-canonical encoding")
	ErrMapOrder     = errors.New("wire: map keys not strictly ascending")
	ErrTrailing     = errors.New("wire: trailing bytes after the layout")
)

// maxCount bounds declared element counts so corrupt payloads cannot
// trigger huge allocations.
const maxCount = 1 << 22

// Reader reads a layout front to back. The first failure sticks: every
// later read returns a zero value, and Err or End reports the failure
// once. Each type's codec reads its fields with the methods below; a
// caller that holds the Reader in a local variable and passes its address
// to direct calls keeps it on the stack.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b. What it reads may alias b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err is the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records err unless a failure is already recorded, and drops the
// rest of the input.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// End reports the first failure, or ErrTrailing when bytes are left: a
// layout that runs to the end of its input was read whole.
func (r *Reader) End() error {
	if r.err == nil && len(r.b) != 0 {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(r.b))
	}
	return r.err
}

// Take returns the next n bytes, aliasing the input with its capacity cut
// at n, or nil when fewer are left.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.Fail(ErrTruncated)
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

// Rest returns every byte left.
func (r *Reader) Rest() []byte { return r.Take(len(r.b)) }

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if p := r.Take(1); p != nil {
		return p[0]
	}
	return 0
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if p := r.Take(4); p != nil {
		return binary.BigEndian.Uint32(p)
	}
	return 0
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if p := r.Take(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

// ReplicaID reads a replica ID as a U32.
func (r *Reader) ReplicaID() types.ReplicaID { return types.ReplicaID(r.U32()) }

// Digest reads a 32-byte digest.
func (r *Reader) Digest() (out types.Digest) {
	copy(out[:], r.Take(len(out)))
	return out
}

// Flag reads AppendFlag's byte, refusing any but 0 and 1.
func (r *Reader) Flag() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	}
	r.Fail(fmt.Errorf("%w: flag byte", ErrNonCanonical))
	return false
}

// Bytes reads AppendBytes' layout. The result aliases the input.
func (r *Reader) Bytes() []byte {
	if !r.Flag() {
		return nil
	}
	return r.Take(int(r.U32()))
}

// Int reads a varint written by binary.AppendVarint, refusing any but the
// shortest encoding of its value.
func (r *Reader) Int() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	var min [binary.MaxVarintLen64]byte
	if n <= 0 || n != len(binary.AppendVarint(min[:0], v)) {
		r.Fail(fmt.Errorf("%w: varint", ErrNonCanonical))
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

// Count reads an element count u32 and refuses one over maxCount or one
// the rest of the input cannot hold at minLen bytes per element, before
// anything is allocated.
func (r *Reader) Count(minLen int) int {
	n := r.U32()
	if n > maxCount || uint64(n)*uint64(minLen) > uint64(len(r.b)) {
		r.Fail(fmt.Errorf("%w: %d elements in %d bytes", ErrTruncated, n, len(r.b)))
		return 0
	}
	return int(n)
}

// ReadMap reads AppendMap's layout; minLen is the least one entry takes.
// An empty map decodes as nil. key and val read from r: pass method
// values or closures over r, which keeps r on the caller's stack.
func ReadMap[K ~uint32 | ~uint64, V any](r *Reader, minLen int, key func() K, val func() V) map[K]V {
	n := r.Count(minLen)
	if n == 0 {
		return nil
	}
	m := make(map[K]V, n)
	var prev K
	for i := 0; i < n && r.err == nil; i++ {
		k := key()
		if i > 0 && k <= prev {
			r.Fail(ErrMapOrder)
			break
		}
		prev = k
		m[k] = val()
	}
	if r.err != nil {
		return nil
	}
	return m
}

// Decode reads a whole layout from b with read, refusing trailing bytes.
func Decode[T any](b []byte, read func(*Reader) T) (T, error) {
	r := NewReader(b)
	v := read(&r)
	if err := r.End(); err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}

// AppendFlag writes 1 for true and 0 for false.
func AppendFlag(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendBytes writes a byte string that keeps nil apart from empty:
// flag 0 for nil, else flag 1, length u32 and the bytes.
func AppendBytes(b, p []byte) []byte {
	if p == nil {
		return append(b, 0)
	}
	b = binary.BigEndian.AppendUint32(append(b, 1), uint32(len(p)))
	return append(b, p...)
}

// AppendInt writes v as a zigzag varint, its shortest form.
func AppendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

// AppendMap writes count u32 and the entries in ascending key order.
func AppendMap[K ~uint32 | ~uint64, V any](b []byte, m map[K]V, key func([]byte, K) []byte, val func([]byte, V) []byte) []byte {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = binary.BigEndian.AppendUint32(b, uint32(len(keys)))
	for _, k := range keys {
		b = key(b, k)
		b = val(b, m[k])
	}
	return b
}

// AppendReplicaID writes id as u32.
func AppendReplicaID(b []byte, id types.ReplicaID) []byte {
	return binary.BigEndian.AppendUint32(b, uint32(id))
}
