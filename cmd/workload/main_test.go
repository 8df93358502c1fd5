package main

import (
	"slices"
	"strings"
	"testing"
)

func TestCharacterize(t *testing.T) {
	cases := []struct {
		graphs, kernels string
		want            []string // "Graph/Kernel" per profile, in order
		wantErr         string
	}{
		{graphs: "Road,kron", kernels: "pr,BFS", want: []string{"Road/BFS", "Road/PR", "Kron/BFS", "Kron/PR"}},
		{graphs: "Urand", kernels: "BFS,SSSP,PR", want: []string{"Urand/BFS", "Urand/SSSP", "Urand/PR"}},
		{graphs: "Kron,Nope", kernels: "BFS", wantErr: `unknown graph "Nope"`},
		{graphs: "Kron", kernels: "BFS,TC", wantErr: `unknown kernel "TC" (have [BFS SSSP PR])`},
		{graphs: "Kron", kernels: "bsf", wantErr: `unknown kernel "bsf"`},
	}
	for _, c := range cases {
		profiles, err := characterize(6, c.graphs, c.kernels)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("-graphs %s -kernels %s: error %v, want one containing %q", c.graphs, c.kernels, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("-graphs %s -kernels %s: %v", c.graphs, c.kernels, err)
			continue
		}
		var got []string
		for _, p := range profiles {
			if p.Rounds == 0 || p.EdgesExamined == 0 {
				t.Errorf("%s/%s: empty profile %+v", p.Graph, p.Kernel, p)
			}
			got = append(got, p.Graph+"/"+p.Kernel)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("-graphs %s -kernels %s: profiles %v, want %v", c.graphs, c.kernels, got, c.want)
		}
	}
}
