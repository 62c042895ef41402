package trace_test

import (
	"bytes"
	"io"
	"testing"

	"pathfinder/internal/trace"
	"pathfinder/internal/workload"
)

// BenchmarkReaderNextTable5 decodes a generated Table 5 trace as a PFT3
// stream: 450-soplex-s0, the stream-replay workload's trace. Its records
// average about 12 bytes, where BenchmarkReaderNext's uniformly random
// 48-bit PCs and addresses take about 16. It lives in an external test
// package because workload imports trace.
func BenchmarkReaderNextTable5(b *testing.B) {
	accs, err := workload.Generate("450-soplex-s0", 1<<16, 1)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, trace.NewSliceSource(accs)); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	var a trace.Access
	rd, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rd.Next(&a); err != nil {
			if err != io.EOF {
				b.Fatal(err)
			}
			b.StopTimer()
			rd, err = trace.NewReader(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(len(data))/float64(len(accs)), "B/record")
}
