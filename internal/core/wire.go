package core

import (
	"encoding/binary"
	"fmt"

	"papyruskv/internal/memtable"
)

// Message tags on the database's private request/response communicators.
const (
	// tagMigBatch carries a batch of migrated key-value pairs to their
	// owner rank (relaxed mode); acked with tagMigAck on replyComm.
	tagMigBatch = 1
	tagMigAck   = 2
	// tagPutOne carries a single synchronous put/delete (sequential
	// mode); acked with tagPutAck.
	tagPutOne = 3
	tagPutAck = 4
	// tagGet carries a remote get request; answered with tagGetResp.
	tagGet     = 5
	tagGetResp = 6
	// tagShutdown stops a rank's message handler and response router
	// (sent to self on Close, on their respective communicators).
	tagShutdown = 7
	// tagPing is the circuit breaker's half-open probe: a tripped peer is
	// periodically pinged through the response router, and a healthy
	// answer (tagPingAck) closes the circuit. Both directions carry the
	// sender's incarnation number so either side can notice the other was
	// reborn since they last spoke.
	tagPing    = 8
	tagPingAck = 9
	// tagScan carries one remote-scan control message (open / next-page /
	// close); pages come back as tagScanResp on replyComm. The protocol is
	// a paged continuation: the owner parks the scan's pinned iterator in a
	// registry between requests, so one slow consumer holds a registry
	// entry and a snapshot pin — never a handler worker.
	tagScan     = 10
	tagScanResp = 11
)

// Every reply format — acks (encodeAck) and get responses
// (encodeGetResponse) — leads with the 8-byte little-endian sequence number
// of the request it answers. The response router relies on this shared
// prefix to demultiplex replies by (tag, seq) without decoding the body.

// peekReplySeq extracts that leading sequence number; ok=false means the
// frame is too short to carry one and cannot be attributed to any caller.
func peekReplySeq(data []byte) (uint64, bool) {
	if len(data) < 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(data), true
}

// getRequest is the remote get wire format. It carries the caller's storage
// group ID so the owner's handler can decide whether the caller may search
// the shared SSTables itself (§2.7), and a sequence number the response
// echoes so a retrying caller can discard responses to stale attempts.
type getRequest struct {
	Seq     uint64
	Key     []byte
	Group   int
	SeqMode bool // unused by the handler; kept for symmetry/debugging
}

func encodeGetRequest(r getRequest) []byte {
	out := make([]byte, 0, 21+len(r.Key))
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], r.Seq)
	out = append(out, u64[:]...)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(r.Key)))
	out = append(out, u32[:]...)
	binary.LittleEndian.PutUint64(u64[:], uint64(int64(r.Group)))
	out = append(out, u64[:]...)
	var flags byte
	if r.SeqMode {
		flags |= 1
	}
	out = append(out, flags)
	out = append(out, r.Key...)
	return out
}

func decodeGetRequest(data []byte) (getRequest, error) {
	if len(data) < 21 {
		return getRequest{}, fmt.Errorf("core: short get request (%d bytes)", len(data))
	}
	seq := binary.LittleEndian.Uint64(data)
	klen := binary.LittleEndian.Uint32(data[8:])
	group := int(int64(binary.LittleEndian.Uint64(data[12:])))
	flags := data[20]
	if uint32(len(data[21:])) < klen {
		return getRequest{}, fmt.Errorf("core: truncated get request key")
	}
	return getRequest{
		Seq:     seq,
		Key:     data[21 : 21+klen : 21+klen],
		Group:   group,
		SeqMode: flags&1 != 0,
	}, nil
}

// getResponse statuses.
const (
	getFound       = 0 // Value holds the data
	getTombstone   = 1 // key is deleted; stop searching
	getNotFound    = 2 // not present anywhere on the owner
	getSearchShare = 3 // not in the owner's memory; the caller shares the
	// owner's NVM and should search the listed SSTables itself
	getError = 4 // the owner could not serve the request; Err explains why
	// Typed variants of getError: the caller re-wraps Err in the matching
	// sentinel so errors.Is keeps working across the wire.
	getErrorCorrupt = 5 // the owner's read hit a checksum failure (ErrCorrupt)
	getErrorFailed  = 6 // the owner's failure domain is down (ErrRankFailed)
)

// getResponse is the remote get reply.
type getResponse struct {
	Seq    uint64
	Status int
	Value  []byte
	// SSIDs is the owner's live SSTable list at reply time, sent with
	// getSearchShare so the caller searches exactly the tables the owner
	// considers current.
	SSIDs []uint64
	// Err carries the owner's failure description with getError. It
	// crosses the wire as text, so sentinel identity is lost; the caller
	// wraps it in its own error.
	Err string
}

func encodeGetResponse(r getResponse) []byte {
	out := make([]byte, 0, 21+len(r.Value)+8*len(r.SSIDs)+len(r.Err))
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], r.Seq)
	out = append(out, u64[:]...)
	out = append(out, byte(r.Status))
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(r.Value)))
	out = append(out, u32[:]...)
	out = append(out, r.Value...)
	binary.LittleEndian.PutUint32(u32[:], uint32(len(r.SSIDs)))
	out = append(out, u32[:]...)
	for _, id := range r.SSIDs {
		binary.LittleEndian.PutUint64(u64[:], id)
		out = append(out, u64[:]...)
	}
	binary.LittleEndian.PutUint32(u32[:], uint32(len(r.Err)))
	out = append(out, u32[:]...)
	out = append(out, r.Err...)
	return out
}

func decodeGetResponse(data []byte) (getResponse, error) {
	if len(data) < 13 {
		return getResponse{}, fmt.Errorf("core: short get response")
	}
	r := getResponse{Seq: binary.LittleEndian.Uint64(data), Status: int(data[8])}
	vlen := binary.LittleEndian.Uint32(data[9:])
	data = data[13:]
	if uint32(len(data)) < vlen {
		return getResponse{}, fmt.Errorf("core: truncated get response value")
	}
	r.Value = data[:vlen:vlen]
	data = data[vlen:]
	if len(data) < 4 {
		return getResponse{}, fmt.Errorf("core: truncated get response ssid count")
	}
	n := binary.LittleEndian.Uint32(data)
	data = data[4:]
	if uint64(len(data)) < uint64(n)*8 {
		return getResponse{}, fmt.Errorf("core: truncated get response ssids")
	}
	r.SSIDs = make([]uint64, n)
	for i := range r.SSIDs {
		r.SSIDs[i] = binary.LittleEndian.Uint64(data[i*8:])
	}
	data = data[n*8:]
	if len(data) < 4 {
		return getResponse{}, fmt.Errorf("core: truncated get response error length")
	}
	elen := binary.LittleEndian.Uint32(data)
	data = data[4:]
	if uint32(len(data)) < elen {
		return getResponse{}, fmt.Errorf("core: truncated get response error")
	}
	r.Err = string(data[:elen])
	return r, nil
}

// Reliable-request framing: migration batches and synchronous puts carry an
// 8-byte sequence number and the sender's 4-byte incarnation number ahead of
// their payload, and their acks echo the seq with a status byte and, on
// failure, the owner's error text. The seq lets a sender retry without
// risking double application (the receiver's dedup window replays the
// original ack) and lets it discard stale acks produced by duplicated
// requests. The incarnation scopes the dedup window: a reborn sender
// restarts from its replayed WAL, so its seqs must not match acks recorded
// against its previous life.

// prependSeq frames body with its sequence number and the sender's
// incarnation.
func prependSeq(seq uint64, inc uint32, body []byte) []byte {
	out := make([]byte, 12+len(body))
	binary.LittleEndian.PutUint64(out, seq)
	binary.LittleEndian.PutUint32(out[8:], inc)
	copy(out[12:], body)
	return out
}

// splitSeq undoes prependSeq.
func splitSeq(data []byte) (uint64, uint32, []byte, error) {
	if len(data) < 12 {
		return 0, 0, nil, fmt.Errorf("core: short reliable request (%d bytes)", len(data))
	}
	return binary.LittleEndian.Uint64(data), binary.LittleEndian.Uint32(data[8:]), data[12:], nil
}

// encodePing builds a half-open probe: [seq u64][sender incarnation u32].
func encodePing(seq uint64, inc uint32) []byte {
	out := make([]byte, 12)
	binary.LittleEndian.PutUint64(out, seq)
	binary.LittleEndian.PutUint32(out[8:], inc)
	return out
}

func decodePing(data []byte) (seq uint64, inc uint32, err error) {
	if len(data) != 12 {
		return 0, 0, fmt.Errorf("core: bad ping frame (%d bytes)", len(data))
	}
	return binary.LittleEndian.Uint64(data), binary.LittleEndian.Uint32(data[8:]), nil
}

// encodePingAck builds the probe reply: [seq u64][status u8][responder
// incarnation u32]. The seq leads so the response router demultiplexes it
// like every other reply; status is ackOK only when the responder's
// failure domain is healthy.
func encodePingAck(seq uint64, status byte, inc uint32) []byte {
	out := make([]byte, 13)
	binary.LittleEndian.PutUint64(out, seq)
	out[8] = status
	binary.LittleEndian.PutUint32(out[9:], inc)
	return out
}

func decodePingAck(data []byte) (seq uint64, status byte, inc uint32, err error) {
	if len(data) != 13 {
		return 0, 0, 0, fmt.Errorf("core: bad ping ack (%d bytes)", len(data))
	}
	return binary.LittleEndian.Uint64(data), data[8], binary.LittleEndian.Uint32(data[9:]), nil
}

// encodeAck builds an acknowledgement: [seq u64][status u8][error text].
func encodeAck(seq uint64, rec ackRecord) []byte {
	out := make([]byte, 9+len(rec.msg))
	binary.LittleEndian.PutUint64(out, seq)
	out[8] = rec.status
	copy(out[9:], rec.msg)
	return out
}

func decodeAck(data []byte) (uint64, ackRecord, error) {
	if len(data) < 9 {
		return 0, ackRecord{}, fmt.Errorf("core: short ack (%d bytes)", len(data))
	}
	return binary.LittleEndian.Uint64(data), ackRecord{status: data[8], msg: string(data[9:])}, nil
}

// Remote-scan control operations.
const (
	scanOpOpen  = 1 // open a scan over [Lo, Hi) and return page 0
	scanOpNext  = 2 // return page Page of an open scan
	scanOpClose = 3 // drop the scan; fire-and-forget, no reply
)

// Remote-scan reply statuses.
const (
	scanOK           = 0 // Payload holds the page's entries
	scanError        = 1 // the owner's iteration failed; Err explains why
	scanErrorCorrupt = 2 // typed scanError: the read hit a checksum failure
	scanErrorFailed  = 3 // typed scanError: the owner's domain is down
	scanUnknown      = 4 // no such scan (expired, desynced, or never opened)
)

// scanRequest is the remote-scan control wire format. ScanID is allocated by
// the caller (from its sendSeq space, so it is unique per caller life) and
// keyed with the source rank at the owner; Seq is per-attempt, echoed by the
// reply for the response router. Page makes retries idempotent: the owner
// replays the previous page for a duplicate request instead of advancing.
type scanRequest struct {
	Seq      uint64
	ScanID   uint64
	Op       byte
	Page     uint32
	MaxBytes uint32
	Lo, Hi   []byte // only meaningful with scanOpOpen
}

func encodeScanRequest(r scanRequest) []byte {
	out := make([]byte, 0, 33+len(r.Lo)+len(r.Hi))
	var u64 [8]byte
	var u32 [4]byte
	binary.LittleEndian.PutUint64(u64[:], r.Seq)
	out = append(out, u64[:]...)
	binary.LittleEndian.PutUint64(u64[:], r.ScanID)
	out = append(out, u64[:]...)
	out = append(out, r.Op)
	binary.LittleEndian.PutUint32(u32[:], r.Page)
	out = append(out, u32[:]...)
	binary.LittleEndian.PutUint32(u32[:], r.MaxBytes)
	out = append(out, u32[:]...)
	binary.LittleEndian.PutUint32(u32[:], uint32(len(r.Lo)))
	out = append(out, u32[:]...)
	binary.LittleEndian.PutUint32(u32[:], uint32(len(r.Hi)))
	out = append(out, u32[:]...)
	out = append(out, r.Lo...)
	out = append(out, r.Hi...)
	return out
}

func decodeScanRequest(data []byte) (scanRequest, error) {
	if len(data) < 33 {
		return scanRequest{}, fmt.Errorf("core: short scan request (%d bytes)", len(data))
	}
	r := scanRequest{
		Seq:      binary.LittleEndian.Uint64(data),
		ScanID:   binary.LittleEndian.Uint64(data[8:]),
		Op:       data[16],
		Page:     binary.LittleEndian.Uint32(data[17:]),
		MaxBytes: binary.LittleEndian.Uint32(data[21:]),
	}
	loLen := binary.LittleEndian.Uint32(data[25:])
	hiLen := binary.LittleEndian.Uint32(data[29:])
	body := data[33:]
	if uint64(len(body)) < uint64(loLen)+uint64(hiLen) {
		return scanRequest{}, fmt.Errorf("core: truncated scan request bounds")
	}
	r.Lo = body[:loLen:loLen]
	r.Hi = body[loLen : loLen+hiLen : loLen+hiLen]
	return r, nil
}

// scanResponse is one page of a remote scan. Payload is an EncodeEntries
// blob of the page's pairs (tombstones included — the caller's merge needs
// them to shadow nothing, but its final filter drops them); Done marks the
// stream exhausted, after which the owner has already released the scan.
type scanResponse struct {
	Seq     uint64
	Status  byte
	Done    bool
	Page    uint32
	Payload []byte
	Err     string
}

// scanRespHeader is the fixed scan-response prefix:
// [Seq u64][Status u8][Done u8][Page u32][PayloadLen u32].
const scanRespHeader = 18

// sealScanPageFrame writes the success header of a frame whose payload
// producePage already encoded in place after scanRespHeader, and appends the
// empty error field — the zero-copy path of encodeScanResponse for the hot
// page replies.
func sealScanPageFrame(frame []byte, seq uint64, done bool, page uint32) []byte {
	binary.LittleEndian.PutUint64(frame, seq)
	frame[8] = scanOK
	frame[9] = 0
	if done {
		frame[9] = 1
	}
	binary.LittleEndian.PutUint32(frame[10:], page)
	binary.LittleEndian.PutUint32(frame[14:], uint32(len(frame)-scanRespHeader))
	return append(frame, 0, 0, 0, 0)
}

func encodeScanResponse(r scanResponse) []byte {
	out := make([]byte, 0, 22+len(r.Payload)+len(r.Err))
	var u64 [8]byte
	var u32 [4]byte
	binary.LittleEndian.PutUint64(u64[:], r.Seq)
	out = append(out, u64[:]...)
	out = append(out, r.Status)
	var done byte
	if r.Done {
		done = 1
	}
	out = append(out, done)
	binary.LittleEndian.PutUint32(u32[:], r.Page)
	out = append(out, u32[:]...)
	binary.LittleEndian.PutUint32(u32[:], uint32(len(r.Payload)))
	out = append(out, u32[:]...)
	out = append(out, r.Payload...)
	binary.LittleEndian.PutUint32(u32[:], uint32(len(r.Err)))
	out = append(out, u32[:]...)
	out = append(out, r.Err...)
	return out
}

func decodeScanResponse(data []byte) (scanResponse, error) {
	if len(data) < 18 {
		return scanResponse{}, fmt.Errorf("core: short scan response (%d bytes)", len(data))
	}
	r := scanResponse{
		Seq:    binary.LittleEndian.Uint64(data),
		Status: data[8],
		Done:   data[9] != 0,
		Page:   binary.LittleEndian.Uint32(data[10:]),
	}
	plen := binary.LittleEndian.Uint32(data[14:])
	data = data[18:]
	if uint32(len(data)) < plen {
		return scanResponse{}, fmt.Errorf("core: truncated scan response payload")
	}
	r.Payload = data[:plen:plen]
	data = data[plen:]
	if len(data) < 4 {
		return scanResponse{}, fmt.Errorf("core: truncated scan response error length")
	}
	elen := binary.LittleEndian.Uint32(data)
	data = data[4:]
	if uint32(len(data)) < elen {
		return scanResponse{}, fmt.Errorf("core: truncated scan response error")
	}
	r.Err = string(data[:elen])
	return r, nil
}

// putOne is the sequential-mode single-operation wire format.
type putOne struct {
	Key       []byte
	Value     []byte
	Tombstone bool
}

func encodePutOne(p putOne) []byte {
	return memtable.EncodeEntries([]memtable.Entry{{Key: p.Key, Value: p.Value, Tombstone: p.Tombstone}})
}
