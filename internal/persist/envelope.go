package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Kind tags what a record's payload decodes to.
type Kind uint8

// Record kinds. Values are part of the on-disk format; never renumber.
const (
	// KindEngine is a compiled engine, serialized as its architecture
	// (JSON core.Arch); the decoder is core.NewEngine.
	KindEngine Kind = 1
	// KindLayerContext is reserved: it tagged the retired JSON layer-
	// context payload. Nothing writes or admits it; a leftover file is
	// skipped and deleted by the serving layer's boot scan.
	KindLayerContext Kind = 2
	// KindJob is reserved: it tagged the retired async-job records (job
	// snapshots and write-ahead entries). Nothing writes or admits it; a
	// leftover file is skipped and deleted like KindLayerContext.
	KindJob Kind = 3
	// KindLayerContextCol is a layer context in the binary columnar
	// payload format (EncodeLayerContextColumnar): PMF points and energy
	// tables as raw float64 columns, so a warm-from-disk decode does no
	// float parsing.
	KindLayerContextCol Kind = 4
	// KindCheckpoint is reserved: it tagged the retired per-item
	// checkpoints of async sweep jobs. Nothing writes or admits it; a
	// leftover file is skipped and deleted like KindLayerContext.
	KindCheckpoint Kind = 5
)

// String names the kind for filenames and diagnostics.
func (k Kind) String() string {
	switch k {
	case KindEngine:
		return "eng"
	case KindLayerContext:
		return "ctx"
	case KindJob:
		return "job"
	case KindLayerContextCol:
		return "ctxc"
	case KindCheckpoint:
		return "ckpt"
	}
	return fmt.Sprintf("kind%d", uint8(k))
}

func (k Kind) valid() bool { return k >= KindEngine && k <= KindCheckpoint }

// Record is one persisted entry: a kind, its content-addressed key, the
// measured cost of recomputing it (seconds; cache records only), and the
// kind-specific payload.
type Record struct {
	Kind    Kind
	Key     string
	CostSec float64
	Payload []byte
}

// FormatVersion is the current envelope format. Decoding any other
// version returns ErrVersion (the file is then reclaimed by ScanOrdered).
const FormatVersion = 1

var magic = [4]byte{'C', 'W', 'S', '1'}

// ErrCorrupt marks an envelope that failed structural validation:
// truncated, bad magic, impossible lengths, or checksum mismatch.
var ErrCorrupt = errors.New("persist: corrupt record")

// ErrVersion marks an envelope written by a different format version.
var ErrVersion = errors.New("persist: format version mismatch")

// envelopeOverhead is the byte count of everything but key and payload.
const envelopeOverhead = 4 + 2 + 1 + 8 + 4 + 4 + 4

// EncodeRecord serializes a record into the self-describing envelope.
func EncodeRecord(r Record) ([]byte, error) {
	if !r.Kind.valid() {
		return nil, fmt.Errorf("persist: invalid record kind %d", r.Kind)
	}
	if r.Key == "" {
		return nil, errors.New("persist: record has no key")
	}
	buf := make([]byte, 0, envelopeOverhead+len(r.Key)+len(r.Payload))
	buf = append(buf, magic[:]...)
	buf = binary.BigEndian.AppendUint16(buf, FormatVersion)
	buf = append(buf, byte(r.Kind))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(r.CostSec))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.Key)))
	buf = append(buf, r.Key...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.Payload)))
	buf = append(buf, r.Payload...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// DecodeRecord parses an envelope, verifying structure and checksum. It
// returns ErrVersion for well-formed envelopes of another format version
// and ErrCorrupt for everything unparseable; both mean "skip and delete".
// The record's Payload is a slice of data, not a copy.
func DecodeRecord(data []byte) (Record, error) {
	if len(data) < envelopeOverhead {
		return Record{}, fmt.Errorf("%w: %d bytes is shorter than the envelope", ErrCorrupt, len(data))
	}
	if [4]byte(data[:4]) != magic {
		return Record{}, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:4])
	}
	// Checksum first: a corrupted version field must not masquerade as a
	// clean version mismatch.
	body, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return Record{}, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if v := binary.BigEndian.Uint16(data[4:6]); v != FormatVersion {
		return Record{}, fmt.Errorf("%w: file version %d, supported %d", ErrVersion, v, FormatVersion)
	}
	r := Record{
		Kind:    Kind(data[6]),
		CostSec: math.Float64frombits(binary.BigEndian.Uint64(data[7:15])),
	}
	if !r.Kind.valid() {
		return Record{}, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, data[6])
	}
	if math.IsNaN(r.CostSec) || math.IsInf(r.CostSec, 0) || r.CostSec < 0 {
		return Record{}, fmt.Errorf("%w: invalid cost %g", ErrCorrupt, r.CostSec)
	}
	keyLen := int(binary.BigEndian.Uint32(data[15:19]))
	rest := len(data) - envelopeOverhead
	if keyLen <= 0 || keyLen > rest {
		return Record{}, fmt.Errorf("%w: key length %d exceeds record", ErrCorrupt, keyLen)
	}
	r.Key = string(data[19 : 19+keyLen])
	off := 19 + keyLen
	payloadLen := int(binary.BigEndian.Uint32(data[off : off+4]))
	if payloadLen != rest-keyLen {
		return Record{}, fmt.Errorf("%w: payload length %d does not match record size", ErrCorrupt, payloadLen)
	}
	r.Payload = data[off+4 : off+4+payloadLen : off+4+payloadLen]
	return r, nil
}
