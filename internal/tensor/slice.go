package tensor

import "fmt"

// SliceMode fixes one mode of a dense tensor at the given index and
// returns the resulting (N−1)-mode tensor. For an ensemble tensor this
// extracts, e.g., the snapshot of all parameter combinations at one
// timestamp.
func (d *Dense) SliceMode(mode, index int) *Dense {
	checkSliceArgs(d.Shape, mode, index)
	outShape := make(Shape, 0, d.Shape.Order()-1)
	for k, s := range d.Shape {
		if k != mode {
			outShape = append(outShape, s)
		}
	}
	out := NewDense(outShape)
	idx := make([]int, d.Shape.Order())
	outIdx := make([]int, outShape.Order())
	for lin, v := range d.Data {
		d.Shape.MultiIndex(lin, idx)
		if idx[mode] != index {
			continue
		}
		p := 0
		for k, i := range idx {
			if k != mode {
				outIdx[p] = i
				p++
			}
		}
		out.Data[outShape.LinearIndex(outIdx)] = v
	}
	return out
}

func checkSliceArgs(shape Shape, mode, index int) {
	if mode < 0 || mode >= shape.Order() {
		panic(fmt.Sprintf("tensor: slice mode %d out of range for order %d", mode, shape.Order()))
	}
	if index < 0 || index >= shape[mode] {
		panic(fmt.Sprintf("tensor: slice index %d out of range for mode size %d", index, shape[mode]))
	}
	if shape.Order() < 2 {
		panic("tensor: cannot slice an order-1 tensor")
	}
}
