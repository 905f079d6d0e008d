func nest7(v0):
entry:
    li v1, 1
    li v2, 0
    li v3, 0
l1:
    li v4, 0
l2:
    li v5, 0
l3:
    li v6, 0
l4:
    li v7, 0
l5:
    li v8, 0
l6:
    li v9, 0
l7:
    add v10, v2, v9
    xor v11, v10, v4
    add v12, v11, v6
    sub v13, v12, v8
    mul v14, v13, v5
    xor v15, v14, v7
    add v2, v15, v3
    add v9, v9, v1
    blt v9, v0, l7
l6end:
    add v8, v8, v1
    blt v8, v0, l6
l5end:
    add v7, v7, v1
    blt v7, v0, l5
l4end:
    add v6, v6, v1
    blt v6, v0, l4
l3end:
    add v5, v5, v1
    blt v5, v0, l3
l2end:
    add v4, v4, v1
    blt v4, v0, l2
l1end:
    add v3, v3, v1
    blt v3, v0, l1
exit:
    ret v2
