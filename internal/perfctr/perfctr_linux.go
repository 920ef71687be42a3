package perfctr

import (
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"syscall"
	"unsafe"
)

// counter is an open instruction counter of the thread that opened it.
// Its owner keeps its goroutine locked to that thread
// (runtime.LockOSThread) for as long as it counts.
type counter struct{ fd int }

// From linux/perf_event.h.
const (
	typeHardware     = 0
	hwInstructions   = 1
	attrDisabled     = 1 << 0
	attrExcludeKern  = 1 << 5
	attrExcludeHV    = 1 << 6
	flagFDCloexec    = 1 << 3
	iocEnable        = 0x2400
	iocDisable       = 0x2401
	iocReset         = 0x2403
	paranoidSettings = "/proc/sys/kernel/perf_event_paranoid"
)

// open opens a stopped counter of the calling thread's user-space
// instructions, or says why it cannot.
func open() (*counter, error) {
	// struct perf_event_attr up to PERF_ATTR_SIZE_VER0: type, size,
	// config, then the flag bits at byte 40; every other field is 0.
	var a [64]byte
	binary.NativeEndian.PutUint32(a[0:], typeHardware)
	binary.NativeEndian.PutUint32(a[4:], uint32(len(a)))
	binary.NativeEndian.PutUint64(a[8:], hwInstructions)
	binary.NativeEndian.PutUint64(a[40:], attrDisabled|attrExcludeKern|attrExcludeHV)
	fd, _, errno := syscall.Syscall6(syscall.SYS_PERF_EVENT_OPEN, uintptr(unsafe.Pointer(&a[0])),
		0, ^uintptr(0), ^uintptr(0), flagFDCloexec, 0) // this thread, any CPU, no group
	if errno != 0 {
		paranoid, _ := os.ReadFile(paranoidSettings)
		return nil, fmt.Errorf("perfctr: perf_event_open: %v (perf_event_paranoid %s; 3 or more forbids it, ENOENT means no PMU)",
			errno, strings.TrimSpace(string(paranoid)))
	}
	return &counter{fd: int(fd)}, nil
}

// start zeroes the count and starts counting.
func (c *counter) start() error {
	if err := c.ioctl(iocReset); err != nil {
		return err
	}
	return c.ioctl(iocEnable)
}

// stop stops counting and returns the instructions since start.
func (c *counter) stop() (uint64, error) {
	if err := c.ioctl(iocDisable); err != nil {
		return 0, err
	}
	var v [8]byte
	if _, err := syscall.Read(c.fd, v[:]); err != nil {
		return 0, fmt.Errorf("perfctr: read: %w", err)
	}
	return binary.NativeEndian.Uint64(v[:]), nil
}

func (c *counter) close() error { return syscall.Close(c.fd) }

func (c *counter) ioctl(req uintptr) error {
	if _, _, errno := syscall.Syscall(syscall.SYS_IOCTL, uintptr(c.fd), req, 0); errno != 0 {
		return fmt.Errorf("perfctr: ioctl %#x: %v", req, errno)
	}
	return nil
}
