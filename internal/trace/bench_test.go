package trace

import (
	"bytes"
	"testing"
)

// BenchmarkEmitBatchVsEmit measures sinks fed 512-sample batches, the
// granularity the decode stage emits at. The level histogram is bound
// by dispatch and bounds checks; the rolling hash the sweeps run
// (MD5-bound) is reported for context.
func BenchmarkEmitBatchVsEmit(b *testing.B) {
	src := synthTrace(65536)
	const batch = 512

	chains := []struct {
		name string
		mk   func() Sink
	}{
		{"levels", func() Sink { return NewTee(&LevelHist{}) }},
		{"hash", func() Sink { return NewHash() }},
	}
	for _, c := range chains {
		b.Run(c.name+"/batch", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sk := c.mk()
				for off := 0; off < len(src.Samples); off += batch {
					if err := sk.EmitBatch(src.Samples[off : off+batch]); err != nil {
						b.Fatal(err)
					}
				}
				if err := sk.Close(); err != nil {
					b.Fatal(err)
				}
			}
			perSample(b, len(src.Samples))
		})
	}
}

func perSample(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n*b.N), "ns/sample")
}

// BenchmarkTraceCompressedScan measures the filtered out-of-core scan
// on the same stream stored as v2 and v2.1: the hinted window admits
// one block in ten, so the compressed file decompresses only what it
// reads. bytes/op is the stored file size (scan MB/s against bytes on
// disk); blocks read/skipped are reported per op.
func BenchmarkTraceCompressedScan(b *testing.B) {
	tr := synthTrace(100_000) // 100 blocks of 1000
	lo, hi := uint64(4_500_000), uint64(5_500_000)

	for _, bc := range []struct {
		name string
		file []byte
	}{
		{"v2", encodeV2(tr, 1000)},
		{"v2.1", encodeV21(tr, 1000)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rd, err := OpenV2(bytes.NewReader(bc.file))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.file)))
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				if err := rd.Scan(ScanHints{TimeLo: lo, TimeHi: hi}, func(*Sample) { n++ }); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			read, skip := rd.ScanStats()
			b.ReportMetric(float64(read)/float64(b.N), "blocks-read/op")
			b.ReportMetric(float64(skip)/float64(b.N), "blocks-skipped/op")
			if n == 0 {
				b.Fatal("window admitted no samples")
			}
		})
	}
}
