package meter

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
)

// NameSize is the size of a socket name in a meter message: the 16
// bytes of a 4.2BSD struct sockaddr (Appendix A: "typedef struct
// sockaddr NAME").
const NameSize = 16

// Address families carried in the first two bytes of a Name. AFUnix
// and AFInet use their 4.2BSD values; AFPair is the family invented
// for the internally generated unique names of socketpairs (section
// 4.1: "in the case of socketpairs, an internally generated unique
// name").
const (
	AFUnspec uint16 = 0
	AFUnix   uint16 = 1
	AFInet   uint16 = 2
	AFPair   uint16 = 100
)

// Name is a socket name as carried in meter messages: a fixed 16-byte
// sockaddr image. The family occupies bytes 0–1 (little-endian, as the
// VAX stored shorts); an Internet name stores port (bytes 2–3) and
// host (bytes 4–7) in network byte order like sockaddr_in; UNIX-domain
// and socketpair names store up to 14 path bytes.
type Name [NameSize]byte

// maxPath is the path capacity of a UNIX-domain Name.
const maxPath = NameSize - 2

// InetName builds an Internet-domain socket name.
func InetName(host uint32, port uint16) Name {
	var n Name
	binary.LittleEndian.PutUint16(n[0:2], AFInet)
	binary.BigEndian.PutUint16(n[2:4], port)
	binary.BigEndian.PutUint32(n[4:8], host)
	return n
}

// UnixName builds a UNIX-domain socket name from a path. Paths longer
// than 14 bytes are truncated, as sockaddr_un fields were.
func UnixName(path string) Name { return pathName(AFUnix, path) }

// PairName builds the internally generated unique name of one
// socketpair endpoint.
func PairName(id uint32) Name { return pathName(AFPair, fmt.Sprintf("pair#%d", id)) }

func pathName(family uint16, path string) Name {
	// sockaddr paths are NUL-terminated: anything from the first NUL
	// on is unrepresentable and dropped, keeping names canonical.
	var n Name
	binary.LittleEndian.PutUint16(n[0:2], family)
	for i := 0; i < len(path) && i < maxPath && path[i] != 0; i++ {
		n[2+i] = path[i]
	}
	return n
}

// Family returns the name's address family.
func (n Name) Family() uint16 { return binary.LittleEndian.Uint16(n[0:2]) }

// Inet returns the host and port of an Internet name. It is only
// meaningful when Family() == AFInet.
func (n Name) Inet() (host uint32, port uint16) {
	return binary.BigEndian.Uint32(n[4:8]), binary.BigEndian.Uint16(n[2:4])
}

// Path returns the path of a UNIX-domain or socketpair name.
func (n Name) Path() string {
	b := n[2:]
	if i := bytes.IndexByte(b, 0); i >= 0 {
		b = b[:i]
	}
	return string(b)
}

// IsZero reports whether the name is entirely unset — the encoding of
// "name not available", as when a process writes across a connection
// and the recipient is unknown to the metering software (section 4.1).
func (n Name) IsZero() bool { return n == Name{} }

// String renders the name for trace logs and analysis output.
func (n Name) String() string { return string(n.AppendText(nil)) }

// AppendText appends the String rendering of the name to dst and
// returns the extended slice. Filters format every surviving record's
// name fields, so this path avoids fmt and allocates nothing beyond
// dst's growth.
func (n Name) AppendText(dst []byte) []byte {
	switch n.Family() {
	case AFUnspec:
		if n.IsZero() {
			return append(dst, '-')
		}
		dst = append(dst, "unspec:"...)
		return hex.AppendEncode(dst, n[2:])
	case AFInet:
		host, port := n.Inet()
		dst = append(dst, "inet:"...)
		dst = strconv.AppendUint(dst, uint64(host), 10)
		dst = append(dst, ':')
		return strconv.AppendUint(dst, uint64(port), 10)
	case AFUnix:
		dst = append(dst, "unix:"...)
		return n.appendPath(dst)
	case AFPair:
		dst = append(dst, "pair:"...)
		return n.appendPath(dst)
	default:
		dst = append(dst, "af"...)
		dst = strconv.AppendUint(dst, uint64(n.Family()), 10)
		dst = append(dst, ':')
		return hex.AppendEncode(dst, n[2:])
	}
}

// appendPath appends the NUL-terminated path bytes without the
// intermediate string Path builds.
func (n Name) appendPath(dst []byte) []byte {
	b := n[2:]
	if i := bytes.IndexByte(b, 0); i >= 0 {
		b = b[:i]
	}
	return append(dst, b...)
}

// ParseName parses the String form back into a Name; trace logs store
// names in that form. It returns an error for unrecognized syntax.
func ParseName(s string) (Name, error) {
	if n, ok := parseCanonical(s); ok {
		return n, nil
	}
	// Any other spelling of an inet name ("inet:+1:2", "inet:1:2junk")
	// keeps the accept set fmt.Sscanf has always given it.
	if len(s) > 5 && s[:5] == "inet:" {
		var host uint32
		var port uint16
		if _, err := fmt.Sscanf(s, "inet:%d:%d", &host, &port); err != nil {
			return Name{}, fmt.Errorf("meter: bad inet name %q: %v", s, err)
		}
		return InetName(host, port), nil
	}
	return Name{}, fmt.Errorf("meter: unrecognized name %q", s)
}

// parseCanonical is ParseName for the spellings AppendText writes —
// "-", "inet:H:P" in strict decimal, "unix:path", "pair:path" — without
// fmt. ok is false for anything else, including names ParseName would
// still accept.
func parseCanonical(s string) (Name, bool) {
	if len(s) == 1 && s[0] == '-' {
		return Name{}, true
	}
	if len(s) < 5 || s[4] != ':' {
		return Name{}, false
	}
	switch string(s[:4]) {
	case "inet":
		host, i, ok := decimalAt(s, 5, 1<<32-1)
		if !ok || i == len(s) || s[i] != ':' {
			return Name{}, false
		}
		port, i, ok := decimalAt(s, i+1, 1<<16-1)
		if !ok || i != len(s) {
			return Name{}, false
		}
		return InetName(uint32(host), uint16(port)), true
	case "unix":
		return pathName(AFUnix, s[5:]), true
	case "pair":
		return pathName(AFPair, s[5:]), true
	}
	return Name{}, false
}

// decimalAt reads the run of decimal digits at s[i:], returning the
// value and the index after it. ok is false for an empty run, a leading
// zero on a longer run, or a value above max.
func decimalAt(s string, i int, max uint64) (v uint64, end int, ok bool) {
	start := i
	for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		if v = v*10 + uint64(s[i]-'0'); v > max {
			return 0, i, false
		}
	}
	if i == start || (s[start] == '0' && i > start+1) {
		return 0, i, false
	}
	return v, i, true
}
