//go:build linux

package zerocopy

import (
	"os"
	"runtime"
	"syscall"
)

const supported = true

// FadviseWillNeed hints the kernel to read the whole file ahead —
// called when a spill-file serve handle is first opened, so the disk
// read overlaps the response instead of stalling the first sendfile.
func FadviseWillNeed(f *os.File) {
	fadvise(f.Fd(), 3 /* POSIX_FADV_WILLNEED */)
	runtime.KeepAlive(f)
}

// DropPageCache hints the kernel that a spill file's pages are dead —
// called right before eviction unlinks it, so a full disk tier doesn't
// squat on page cache the live blobs want.
func DropPageCache(path string) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	fadvise(f.Fd(), 4 /* POSIX_FADV_DONTNEED */)
	f.Close()
}

func fadvise(fd uintptr, advice int) {
	syscall.Syscall6(syscall.SYS_FADVISE64, fd, 0, 0, uintptr(advice), 0, 0)
}
