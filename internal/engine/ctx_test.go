package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/influence"
)

func comBytes(c Community) string {
	return fmt.Sprintf("found=%t level=%d fromIndex=%t nodes=%v", c.Found, c.Level, c.FromIndex, c.Nodes)
}

func TestQueryCtxCancellationIsFastAndTyped(t *testing.T) {
	g, q := attrGraph(t, 3)
	eng, err := Build(context.Background(), g, Params{K: 3, Theta: 10, Seed: 5}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, v := range []Variant{VariantCODL, VariantCODR, VariantCODU} {
		start := time.Now()
		_, err := eng.Execute(ctx, eng.Compile(v, q, 0), graph.NewRand(7))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v canceled error = %v, want context.Canceled", v, err)
		}
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Errorf("canceled %v query took %v", v, elapsed)
		}
	}
	var ce *influence.CanceledError
	if _, err := eng.Execute(ctx, eng.Compile(VariantCODU, q, 0), graph.NewRand(7)); !errors.As(err, &ce) {
		t.Errorf("CODU canceled error %T carries no progress", err)
	} else if ce.Total == 0 {
		t.Error("CanceledError.Total missing")
	}
}

func TestBuildCancellation(t *testing.T) {
	g, _ := attrGraph(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(ctx, g, Params{Theta: 4}, Config{}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled offline build error = %v", err)
	}
}
