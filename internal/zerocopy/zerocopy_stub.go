//go:build !linux

package zerocopy

import "os"

const supported = false

// FadviseWillNeed is a no-op off Linux.
func FadviseWillNeed(f *os.File) {}

// DropPageCache is a no-op off Linux.
func DropPageCache(path string) {}
