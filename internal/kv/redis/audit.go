package redis

import (
	"fmt"

	"github.com/ido-nvm/ido/internal/nvm"
)

// Image auditors, run by crash tests over a recovered device image. They
// read the persistence domain directly, not through FASEs, the way the
// recovery passes do. auditBound caps every walk, so a corrupted link
// fails the audit instead of hanging it.
const auditBound = 1 << 12

// Header is a dictionary image's entry count and dirty counter.
type Header struct{ Count, Dirty uint64 }

// ReadHeader reads the header of the dictionary image at tbl.
func ReadHeader(dev *nvm.Device, tbl uint64) Header {
	return Header{Count: dev.Load64(tbl + tCount), Dirty: dev.Load64(tbl + tDirty)}
}

// WalkEntries visits the key and value of every entry of every chain of
// the dictionary image at tbl.
func WalkEntries(dev *nvm.Device, tbl uint64, fn func(key, val uint64) error) error {
	n := dev.Load64(tbl + tBuckets)
	if n == 0 || n > auditBound || n&(n-1) != 0 {
		return fmt.Errorf("redis header: implausible bucket count %d", n)
	}
	for b := uint64(0); b < n; b++ {
		steps := 0
		for e := dev.Load64(tbl + tArray + b*8); e != 0; e = dev.Load64(e + eNext) {
			if steps++; steps > auditBound {
				return fmt.Errorf("bucket %d: chain exceeds %d entries (cycle?)", b, auditBound)
			}
			if err := fn(dev.Load64(e+eKey), dev.Load64(e+eVal)); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckRedisImage verifies the dictionary image at tbl: a plausible
// header, acyclic chains, no duplicate keys, and an entry count matching
// the chains.
func CheckRedisImage(dev *nvm.Device, tbl uint64) error {
	seen := map[uint64]bool{}
	err := WalkEntries(dev, tbl, func(k, _ uint64) error {
		if seen[k] {
			return fmt.Errorf("duplicate key %d", k)
		}
		seen[k] = true
		return nil
	})
	if err != nil {
		return err
	}
	if cnt := dev.Load64(tbl + tCount); cnt != uint64(len(seen)) {
		return fmt.Errorf("count = %d, chains hold %d entries", cnt, len(seen))
	}
	return nil
}
