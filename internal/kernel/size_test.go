package kernel

import (
	"testing"
	"unsafe"
)

// The allocator rounds an object up to its size class, so a socket or a
// process costs its class, not its size: Socket's 192 is its class
// exactly, Process's 200 rounds to 208. Both were 288 (Socket 288,
// Process 264). A field added to either moves it a class up, which
// each job's six processes and thirty sockets pay for; these tests
// make that a decision rather than an accident.

func TestSocketSize(t *testing.T) {
	if n := unsafe.Sizeof(Socket{}); n <= 176 || n > 192 {
		t.Errorf("a Socket is %d bytes; want it in the 192-byte size class (177 to 192)", n)
	}
}

func TestProcessSize(t *testing.T) {
	if n := unsafe.Sizeof(Process{}); n <= 192 || n > 208 {
		t.Errorf("a Process is %d bytes; want it in the 208-byte size class (193 to 208)", n)
	}
}
