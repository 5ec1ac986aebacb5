package transport

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"github.com/zeroloss/zlb/internal/asmr"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/types"
)

// sampleDecision is the decision the frame samples carry in a catch-up
// answer: every map of several keys, an empty and a non-empty payload.
func sampleDecision(t *testing.T) *sbc.Decision {
	t.Helper()
	for _, s := range frameSamples() {
		if resp, ok := s.msg.(*asmr.CatchupResp); ok && len(resp.Blocks) > 0 && resp.Blocks[0].Decision != nil {
			return resp.Blocks[0].Decision
		}
	}
	t.Fatal("no frame sample carries a decision")
	return nil
}

// TestHistoryFileRoundTrip puts decisions into a history file and reads
// each back equal to what was put, in any order, and refuses a reference
// that is not one record. The file is unlinked from the start: the
// directory it was made in stays empty.
func TestHistoryFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	h, err := OpenHistoryFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("the history file has a name: %v", left)
	}
	d := sampleDecision(t)
	var refs []asmr.HistoryRef
	for range 3 {
		ref, err := h.Put(d)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	if want := 3 * int64(len(appendDecision(nil, d))); h.Bytes() != want {
		t.Fatalf("history holds %d bytes, want %d", h.Bytes(), want)
	}
	for i := len(refs) - 1; i >= 0; i-- {
		got, err := h.Get(refs[i])
		if err != nil {
			t.Fatalf("decision %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, d) || got.Digest() != d.Digest() {
			t.Fatalf("decision %d read back as %+v, put %+v", i, got, d)
		}
	}
	if _, err := h.Get(asmr.HistoryRef{Off: h.Bytes(), Len: 1}); err == nil {
		t.Error("a reference past the end was read")
	}
	if _, err := h.Get(asmr.HistoryRef{Off: refs[0].Off, Len: refs[0].Len + 1}); err == nil {
		t.Error("a reference running into the next record was read")
	}
}

// TestHistoryFileWritesAPayloadOnce puts a decision whose four slots
// carry one payload, as on a broadcast workload, beside one that carries
// its own: the record holds the shared payload once, and reads back equal
// to what was put, the four slots sharing one array.
func TestHistoryFileWritesAPayloadOnce(t *testing.T) {
	d := *sampleDecision(t)
	shared := bytes.Repeat([]byte("a payment "), 1000)
	own := bytes.Repeat([]byte("another one "), 10)
	d.Proposals = make(map[types.ReplicaID]sbc.ProposalInfo)
	for slot := types.ReplicaID(1); slot <= 5; slot++ {
		payload := shared
		if slot == 3 {
			payload = own
		}
		d.Proposals[slot] = sbc.ProposalInfo{Broadcaster: slot, Payload: payload, Digest: types.Hash(payload), ClaimedBytes: len(payload), ClaimedSigs: 7}
	}
	h, err := OpenHistoryFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ref, err := h.Put(&d)
	if err != nil {
		t.Fatal(err)
	}
	if full := int64(len(appendDecision(nil, &d))); ref.Len > full-3*int64(len(shared)) {
		t.Fatalf("record of %d bytes, %d with every payload written out: the shared payload is written more than once", ref.Len, full)
	}
	if len(d.Proposals[2].Payload) != len(shared) {
		t.Fatal("Put changed the decision it was given")
	}
	got, err := h.Get(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, &d) || got.Digest() != d.Digest() {
		t.Fatalf("read back as %+v, put %+v", got, &d)
	}
	for _, slot := range []types.ReplicaID{2, 4, 5} {
		if &got.Proposals[slot].Payload[0] != &got.Proposals[1].Payload[0] {
			t.Errorf("slot %d's payload is a copy of slot 1's", slot)
		}
	}
}

// TestHistoryFileRefusesDamage reads a decision back from a file that was
// cut short, and from one whose encoding was altered: the first read
// fails, and the second fails or decodes to another decision, which the
// replica holds against the instance's digest.
func TestHistoryFileRefusesDamage(t *testing.T) {
	d := sampleDecision(t)
	open := func() (*HistoryFile, asmr.HistoryRef) {
		h, err := OpenHistoryFile(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		ref, err := h.Put(d)
		if err != nil {
			t.Fatal(err)
		}
		return h, ref
	}

	h, ref := open()
	if err := h.f.Truncate(ref.Len - 1); err != nil {
		t.Fatal(err)
	}
	if got, err := h.Get(ref); err == nil {
		t.Errorf("a short read decoded to %+v", got)
	}

	enc := appendDecision(nil, d)
	for off := int64(0); off < ref.Len; off++ {
		h, ref := open()
		if _, err := h.f.WriteAt([]byte{enc[off] ^ 0x41}, ref.Off+off); err != nil {
			t.Fatal(err)
		}
		got, err := h.Get(ref)
		if err == nil && reflect.DeepEqual(got, d) {
			t.Fatalf("byte %d altered and the same decision read back", off)
		}
	}
}
