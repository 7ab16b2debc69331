package meter

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestInetNameRoundTrip(t *testing.T) {
	n := InetName(228320140, 3000)
	if n.Family() != AFInet {
		t.Fatalf("family = %d, want AFInet", n.Family())
	}
	host, port := n.Inet()
	if host != 228320140 || port != 3000 {
		t.Fatalf("Inet() = (%d, %d)", host, port)
	}
}

func TestUnixName(t *testing.T) {
	n := UnixName("/tmp/sock")
	if n.Family() != AFUnix {
		t.Fatalf("family = %d, want AFUnix", n.Family())
	}
	if n.Path() != "/tmp/sock" {
		t.Fatalf("path = %q", n.Path())
	}
}

func TestUnixNameTruncates(t *testing.T) {
	long := "/a/very/long/path/name/indeed"
	n := UnixName(long)
	if got := n.Path(); got != long[:maxPath] {
		t.Fatalf("path = %q, want %q", got, long[:maxPath])
	}
}

func TestUnixNameTruncatesAtNUL(t *testing.T) {
	// sockaddr paths are NUL-terminated: bytes from the first NUL on
	// are unrepresentable and must be dropped so names stay canonical
	// (found by FuzzParseName).
	n := UnixName("/tmp\x00junk")
	if n.Path() != "/tmp" {
		t.Fatalf("path = %q", n.Path())
	}
	again, err := ParseName(n.String())
	if err != nil || again != n {
		t.Fatalf("round trip: %v %v", again, err)
	}
}

func TestPairNameUnique(t *testing.T) {
	a, b := PairName(1), PairName(2)
	if a == b {
		t.Fatal("distinct pair ids produced equal names")
	}
	if a.Family() != AFPair {
		t.Fatalf("family = %d, want AFPair", a.Family())
	}
}

func TestIsZero(t *testing.T) {
	var zero Name
	if !zero.IsZero() {
		t.Fatal("zero name not IsZero")
	}
	if InetName(1, 1).IsZero() {
		t.Fatal("inet name reported zero")
	}
}

func TestNameStringForms(t *testing.T) {
	cases := map[string]Name{
		"-":           {},
		"inet:99:7":   InetName(99, 7),
		"unix:/tmp/x": UnixName("/tmp/x"),
		"pair:pair#3": PairName(3),
	}
	for want, n := range cases {
		if got := n.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestParseNameRoundTrip(t *testing.T) {
	names := []Name{{}, InetName(228320140, 21), UnixName("/tmp/srv"), PairName(12)}
	for _, n := range names {
		got, err := ParseName(n.String())
		if err != nil {
			t.Fatalf("ParseName(%q): %v", n.String(), err)
		}
		if got != n {
			t.Fatalf("ParseName(%q) = %v, want %v", n.String(), got, n)
		}
	}
}

func TestParseNameErrors(t *testing.T) {
	for _, s := range []string{"", "bogus", "inet:x:y"} {
		if _, err := ParseName(s); err == nil {
			t.Errorf("ParseName(%q) succeeded", s)
		}
	}
}

func TestInetNameRoundTripProperty(t *testing.T) {
	f := func(host uint32, port uint16) bool {
		n := InetName(host, port)
		h, p := n.Inet()
		parsed, err := ParseName(n.String())
		return h == host && p == port && err == nil && parsed == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// parseNameSscanf is ParseName as it was before the strict-decimal fast
// path: every inet name through fmt.Sscanf. It stays here as the
// oracle the fast path is checked against.
func parseNameSscanf(s string) (Name, error) {
	switch {
	case s == "-":
		return Name{}, nil
	case len(s) > 5 && s[:5] == "inet:":
		var host uint32
		var port uint16
		if _, err := fmt.Sscanf(s, "inet:%d:%d", &host, &port); err != nil {
			return Name{}, fmt.Errorf("meter: bad inet name %q: %v", s, err)
		}
		return InetName(host, port), nil
	case len(s) >= 5 && s[:5] == "unix:":
		return UnixName(s[5:]), nil
	case len(s) >= 5 && s[:5] == "pair:":
		return pathName(AFPair, s[5:]), nil
	default:
		return Name{}, fmt.Errorf("meter: unrecognized name %q", s)
	}
}

// checkParseNameAgrees asserts that ParseName accepts exactly what the
// Sscanf parser accepts, with the same name and the same error text,
// and that ParseNameBytes never accepts or decodes anything differently.
func checkParseNameAgrees(t *testing.T, s string) {
	t.Helper()
	want, werr := parseNameSscanf(s)
	got, gerr := ParseName(s)
	if (werr == nil) != (gerr == nil) || got != want {
		t.Fatalf("ParseName(%q) = %v, %v; Sscanf parser gives %v, %v", s, got, gerr, want, werr)
	}
	if werr != nil && werr.Error() != gerr.Error() {
		t.Fatalf("ParseName(%q) error %q, Sscanf parser's %q", s, gerr, werr)
	}
	if fast, ok := ParseNameBytes([]byte(s)); ok && (werr != nil || fast != want) {
		t.Fatalf("ParseNameBytes(%q) = %v, true; Sscanf parser gives %v, %v", s, fast, want, werr)
	}
}

// parseNameSpellings are the inputs where a hand-written decimal
// parser and Sscanf could plausibly part ways.
var parseNameSpellings = []string{
	"", "-", "--", "- ", "inet", "inet:", "inet::", "inet:1", "inet:1:", "inet::2", "inet:1:2",
	"inet:0:0", "inet:00:0", "inet:01:2", "inet:1:02", "inet:+1:2", "inet:-1:2", "inet:1:+2",
	"inet:1_0:2", "inet:0x10:2", "inet:1:2junk", "inet:1:2:3", "inet:1 :2", "inet: 1:2", "inet:1: 2",
	"inet:4294967295:65535", "inet:4294967296:1", "inet:1:65536", "inet:99999999999999999999:1",
	"inet:1:99999999999999999999", "inet:١:2", "INET:1:2", "inet;1:2",
	"unix", "unix:", "unix:/tmp/x", "unix:/a/very/long/path/name", "unix:a\x00b", "unix:\x00", "unix:a b",
	"pair:", "pair:pair#3", "pair:0123456789abcdef", "pair", "unspec:00", "af7:00", "bogus",
}

func TestParseNameMatchesSscanfParser(t *testing.T) {
	for _, s := range parseNameSpellings {
		checkParseNameAgrees(t, s)
	}
	for _, s := range []string{"-", "inet:99:7", "unix:/tmp/x", "pair:pair#3", "unix:"} {
		if _, ok := ParseNameBytes([]byte(s)); !ok {
			t.Errorf("ParseNameBytes(%q) declined a canonical spelling", s)
		}
	}
}
