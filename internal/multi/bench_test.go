package multi

import (
	"testing"

	"hetopt/internal/dna"
	"hetopt/internal/offload"
	"hetopt/internal/strategy"
)

func BenchmarkMeasureTwoPhis(b *testing.B) {
	b.ReportAllocs()
	p, err := PaperProblem(2, offload.GenomeWorkload(dna.Human))
	if err != nil {
		b.Fatal(err)
	}
	s := split40(30, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Platform.MeasureSplit(p.Workload, s, i); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTuneTwoPhis(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := PaperProblem(2, offload.GenomeWorkload(dna.Human))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Tune(p, nil, strategy.Options{Budget: 1000, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
